package opt

import (
	"math"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
)

func TestDecodeFragRoundTrip(t *testing.T) {
	p := Params{InputDim: 2, Classes: 3, Real: true}
	buf := core.NewBuffer().PkInt(2).PkVirtual(24).
		PkFloat64s([]float64{7, 9}).PkBytes([]byte{0, 1}).
		PkFloat64s([]float64{1, 2, 3, 4}).PkFloat64s([]float64{2, 0})
	frag, bytes, data, err := decodeFrag(buf.Reader(), p)
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 24 || frag.Len() != 2 || frag.IDs[0] != 7 || frag.IDs[1] != 9 ||
		frag.ProcessedFlags[0] || !frag.ProcessedFlags[1] {
		t.Fatalf("frag = %+v, bytes = %d", frag, bytes)
	}
	if data.Len() != 2 || data.ID(1) != 9 || data.Labels()[0] != 2 {
		t.Fatalf("data = %+v", data)
	}
}

func TestDecodeFragRejectsMalformed(t *testing.T) {
	cost := Params{InputDim: 2, Classes: 3}
	real := Params{InputDim: 2, Classes: 3, Real: true}
	cases := []struct {
		name string
		p    Params
		buf  *core.Buffer
	}{
		{"empty", cost, core.NewBuffer()},
		{"no ids", cost, core.NewBuffer().PkInt(2).PkVirtual(24)},
		{"no flags", cost, core.NewBuffer().PkInt(2).PkVirtual(24).PkFloat64s([]float64{7, 9})},
		{"short flags", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, 9}).PkBytes([]byte{1})},
		{"short ids", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7}).PkBytes([]byte{1, 0})},
		{"count disagrees", cost, core.NewBuffer().PkInt(3).PkVirtual(24).
			PkFloat64s([]float64{7, 9}).PkBytes([]byte{1, 0})},
		{"mistyped count", cost, core.NewBuffer().PkString("2")},
		{"negative id", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, -1}).PkBytes([]byte{1, 0})},
		{"fractional id", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, 8.5}).PkBytes([]byte{1, 0})},
		{"NaN id", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, math.NaN()}).PkBytes([]byte{1, 0})},
		{"id beyond the set", cost, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, float64(cost.NumExemplars())}).PkBytes([]byte{1, 0})},
		{"no features", real, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, 9}).PkBytes([]byte{1, 0})},
		{"short features", real, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, 9}).PkBytes([]byte{1, 0}).
			PkFloat64s([]float64{1, 2, 3}).PkFloat64s([]float64{0, 1})},
		{"short labels", real, core.NewBuffer().PkInt(2).PkVirtual(24).
			PkFloat64s([]float64{7, 9}).PkBytes([]byte{1, 0}).
			PkFloat64s([]float64{1, 2, 3, 4}).PkFloat64s([]float64{0})},
	}
	for _, c := range cases {
		_, _, _, err := decodeFrag(c.buf.Reader(), c.p)
		if !errs.Is(err, CodeBadRedist) {
			t.Errorf("%s: err = %v, want code %s", c.name, err, CodeBadRedist)
		}
	}
}

func TestDecodePlanRejectsMalformed(t *testing.T) {
	good := core.NewBuffer().PkInt(1).PkInt(1).PkInt(0).PkInt(5).PkInt(5).PkInt(0)
	moves, incoming, err := decodePlan(good.Reader(), 2, 0)
	if err != nil || len(moves) != 1 || moves[0].From != 1 || moves[0].To != 0 ||
		moves[0].Count != 5 || incoming != 5 {
		t.Fatalf("moves = %+v, incoming = %d, err = %v", moves, incoming, err)
	}
	for name, buf := range map[string]*core.Buffer{
		"empty":           core.NewBuffer(),
		"negative moves":  core.NewBuffer().PkInt(-1),
		"oversized moves": core.NewBuffer().PkInt(1 << 40).PkInt(0),
		"short move":      core.NewBuffer().PkInt(1).PkInt(1).PkInt(0),
		"mistyped move":   core.NewBuffer().PkInt(1).PkInt(1).PkString("0").PkInt(5).PkInt(5).PkInt(0),
		"short incoming":  core.NewBuffer().PkInt(1).PkInt(1).PkInt(0).PkInt(5).PkInt(5),
	} {
		if _, _, err := decodePlan(buf.Reader(), 2, 0); !errs.Is(err, CodeBadRedist) {
			t.Errorf("%s: err = %v, want code %s", name, err, CodeBadRedist)
		}
	}
}

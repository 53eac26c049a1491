package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/serve"
	"pvmigrate/internal/sim"
)

// daemonWire drives one in-process serve.Server at a time over loopback
// HTTP, with the netwire socket transport and the journal on a disk file
// (so fsync is real). One closed-loop client plays an operator script
// that waits for each reply: it submits a cost-model opt job and a load
// job below saturation, then advances virtual time and reads metrics
// round after round, with periodic task listings, an owner toggle, two
// warm evacuation plans and one host crash with revive. One SSE
// subscriber reads the metrics stream. Each session's journal is then
// replayed headlessly and must reproduce the live fingerprint. serve, the
// journal, netwire and wirefmt work here and nowhere else; reads beside
// writes, and datagrams beside streams, use those layers two ways.
var daemonWire = workload{
	name:      "daemon-wire",
	stepName:  "one write request (client-side, reply included)",
	unitName:  "HTTP requests",
	chunkName: "sessions (one operator script each)",
	// Write CPU times have a steep top percent (advances that carry a
	// recovery or a plan's cutover), where p99 moves with every rank;
	// p95, with hundreds of samples beyond it, does not.
	tail: 95,
	setUp: func(e *env, seed uint64) (func(), error) {
		s, err := startSession(e, 0, nil)
		if err != nil {
			return nil, err
		}
		return func() { _ = s.close() }, nil // the probe only times set-up
	},
	run: runDaemon,
}

// Session shape: rounds of one write and its reads, each advance moving
// virtual time on by advanceMs.
const (
	daemonRounds = 160
	advanceMs    = 250
	daemonHosts  = 4
)

// request is one step of the operator script.
type request struct {
	method, path, body string
	// route names the endpoint for per-route latency.
	route string
}

func (r request) write() bool { return r.method == http.MethodPost }

// daemonScript is session k's operator script for a benchmark seed.
func daemonScript(seed uint64, k int) []request {
	rng := sim.NewRNG(seed*1_000_003 + uint64(k))
	host := func() int { return 1 + rng.Intn(daemonHosts-1) }
	post := func(route, path, body string) request {
		return request{http.MethodPost, path, body, route}
	}
	get := func(route, path string) request { return request{http.MethodGet, path, "", route} }

	virtualMs := daemonRounds * advanceMs
	script := []request{
		post("jobs", "/v1/jobs", `{"kind":"opt","iterations":40}`),
		post("jobs", "/v1/jobs", fmt.Sprintf(
			`{"kind":"load","workers":2,"rate_per_sec":3,"horizon_ms":%d,"seed":%d,"slo_ms":250}`,
			virtualMs, rng.Uint64()%1_000_000+1)),
	}
	owner, ownerOn := host(), 20+rng.Intn(10)
	ownerOff := ownerOn + 12
	plan1, plan1Host := 50+rng.Intn(10), host()
	crash, crashHost := 80+rng.Intn(10), host()
	plan2, plan2Host := 115+rng.Intn(10), host()
	plan := func(n, h int) request {
		return post("plans", "/v1/plans", fmt.Sprintf(
			`{"name":"evac-%d","groups":[{"from_host":%d,"mode":"warm","placement":"least-loaded","concurrency":2}]}`, n, h))
	}
	for r := 0; r < daemonRounds; r++ {
		switch r {
		case ownerOn, ownerOff:
			script = append(script, post("owner", "/v1/owner",
				fmt.Sprintf(`{"host":%d,"active":%t}`, owner, r == ownerOn)))
		case plan1:
			script = append(script, plan(1, plan1Host))
		case plan2:
			script = append(script, plan(2, plan2Host))
		case crash:
			script = append(script, post("faults", "/v1/faults",
				fmt.Sprintf(`{"kind":"host-crash","host":%d,"outage_ms":3000}`, crashHost)))
		default:
			script = append(script, post("advance", "/v1/advance", fmt.Sprintf(`{"ms":%d}`, advanceMs)))
		}
		script = append(script, get("metrics", "/v1/metrics"))
		if r%5 == 4 {
			script = append(script, get("tasks", "/v1/tasks"))
		}
	}
	return append(script,
		get("migrations", "/v1/migrations"),
		get("jobs", "/v1/jobs"),
		get("fingerprint", "/v1/fingerprint"))
}

// session is one live daemon: journal file, socket transport, server,
// HTTP listener, the operator's client and the SSE subscriber.
type session struct {
	journal string
	file    *os.File
	wire    *netwire.Backend
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	sse     *http.Client
	frames  atomic.Int64
	stop    context.CancelFunc
	sseDone chan struct{}
}

// startSession brings a daemon up and waits for the SSE subscriber's
// first frame.
func startSession(e *env, k int, tr *tracer) (*session, error) {
	s := &session{journal: filepath.Join(e.tmp, fmt.Sprintf("session-%d.jsonl", k)), served: make(chan error, 1)}
	f, err := os.OpenFile(s.journal, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	s.file = f
	var codec netwire.WireCodec = netwire.BinaryCodec{}
	if tr != nil {
		codec = tracedCodec{codec, tr}
	}
	s.wire = netwire.NewWithCodec(codec)
	var wire netsim.Wire = s.wire
	var journal io.Writer = f
	if tr != nil {
		wire = tracedWire{s.wire, tr}
		journal = wrapJournal(f, tr)
	}
	s.srv, err = serve.NewServer(serve.Options{Config: serve.Config{Hosts: daemonHosts}, Wire: wire, Journal: journal})
	if err != nil {
		s.wire.Shutdown()
		f.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.wire.Shutdown()
		f.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	// The operator and the subscriber each hold one connection.
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	s.sse = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	if err := s.subscribe(); err != nil {
		_ = s.close() // the subscribe error is the one to report
		return nil, err
	}
	return s, nil
}

// subscribe starts the SSE reader and waits for its first frame.
func (s *session) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/metrics/stream", nil)
	if err != nil {
		return err
	}
	resp, err := s.sse.Do(req)
	if err != nil {
		return fmt.Errorf("subscribe to the metrics stream: %w", err)
	}
	s.sseDone = make(chan struct{})
	first := make(chan struct{})
	go func() {
		defer close(s.sseDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				if s.frames.Add(1) == 1 {
					close(first)
				}
			}
		}
	}()
	select {
	case <-first:
		return nil
	case <-s.sseDone:
		return errors.New("metrics stream ended before its first frame")
	case <-time.After(10 * time.Second):
		return errors.New("metrics stream sent no first frame in 10s")
	}
}

// awaitFrames waits until the subscriber has read want frames or has made
// no progress for a while, and returns the frames read.
func (s *session) awaitFrames(want int64) int64 {
	last, idle := s.frames.Load(), time.Now()
	for last < want && time.Since(idle) < 500*time.Millisecond {
		time.Sleep(time.Millisecond)
		if n := s.frames.Load(); n != last {
			last, idle = n, time.Now()
		}
	}
	return last
}

// close stops the subscriber, the server, the listener and the transport,
// and closes the journal file. It returns once every goroutine the
// session started has ended.
func (s *session) close() error {
	if s.stop != nil {
		s.stop()
		if s.sseDone != nil {
			<-s.sseDone
		}
	}
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.sse.CloseIdleConnections()
	s.wire.Shutdown()
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// do sends one request and returns the status and body.
func (s *session) do(r request) (int, []byte, error) {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, s.base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sessionOutcome is what the script's closing reads reported.
type sessionOutcome struct {
	fingerprint string
	downtimes   []float64 // warm migrations' virtual downtime, ms
	reqP99Ms    float64   // load job's virtual request p99
	migrations  int
	warmRounds  int
	precopyKB   float64
	metrics     serve.MetricsSnapshot
}

func runDaemon(e *env, seed uint64, budget time.Duration, tr *tracer) (*result, error) {
	res := &result{rssAfter: 30}
	routes := map[string][]float64{}
	var reads, replays, setups, downtimes, reqP99s []float64
	wall := time.Now()
	for k := 0; k == 0 || time.Since(wall) < budget; k++ {
		t0 := time.Now()
		tr.begin("setup.session")
		s, err := startSession(e, k, tr)
		tr.end()
		if err != nil {
			return nil, err
		}
		setups = append(setups, ms(time.Since(t0)))

		var out sessionOutcome
		writes := 0
		session := startMeter()
		script := daemonScript(seed, k)
		for _, r := range script {
			kind := "serve.read"
			if r.write() {
				kind = "serve.write"
			}
			m := startMeter()
			tr.begin(kind)
			code, body, err := s.do(r)
			tr.end()
			var lat float64
			if r.write() {
				lat = ms(res.step(m))
				writes++
			} else {
				lat = ms(time.Since(m.wall))
				reads = append(reads, lat)
			}
			res.attempted++
			routes[r.route] = append(routes[r.route], lat)
			if err != nil || code/100 != 2 {
				res.fail("session %d %s %s: status %d %v %s", k, r.method, r.path, code, err, bytes.TrimSpace(body))
				continue
			}
			if err := out.read(r.route, body); err != nil {
				res.fail("session %d %s: %v", k, r.path, err)
			}
		}
		res.chunk(float64(len(script)), session)

		frames := s.awaitFrames(int64(writes) + 1)
		res.add("sse.frames", float64(frames))
		res.add("sse.dropped", float64(max(int64(writes)+1-frames, 0)))
		st := s.wire.Stats()
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("close daemon session %d: %w", k, err)
		}
		addWireStats(res, st)
		if info, err := os.Stat(s.journal); err == nil {
			res.add("journal.bytes", float64(info.Size()))
		}

		t2 := time.Now()
		replayed, events, err := replayJournal(s.journal, tr)
		replays = append(replays, time.Since(t2).Seconds())
		res.add("sim.events", float64(events))
		switch {
		case err != nil:
			res.fail("session %d replay: %v", k, err)
		case replayed != out.fingerprint:
			res.fail("session %d: replay fingerprint %s, live %s", k, replayed, out.fingerprint)
		}
		if err := os.Remove(s.journal); err != nil {
			return nil, err
		}
		fp, _ := strconv.ParseUint(out.fingerprint, 16, 64) // a malformed one already failed the replay check
		res.fps = append(res.fps, fp)
		downtimes = append(downtimes, out.downtimes...)
		reqP99s = append(reqP99s, out.reqP99Ms)
		res.add("mpvm.migrations", float64(out.migrations))
		res.add("mpvm.warm_rounds", float64(out.warmRounds))
		res.add("mpvm.precopy_kb", out.precopyKB)
		res.add("ft.recoveries", float64(out.metrics.Recoveries))
		res.add("trace.events", float64(out.metrics.TraceLen))
	}

	res.report = append(res.report, latencyFigures("write", res.wallSteps)...)
	res.report = append(res.report, latencyFigures("read", reads)...)
	res.report = append(res.report,
		figure{"replay_s", median(replays), "s"},
		figure{"virt_downtime_ms", mean(downtimes), "ms"},
		figure{"virt_req_p99_ms", mean(reqP99s), "ms"},
		figure{"sessions", float64(len(replays)), "count"})
	if tr != nil {
		for _, route := range sortedKeys(routes) {
			res.layer = append(res.layer, latencyFigures("serve."+route, routes[route])...)
		}
		res.layer = append(res.layer, figure{"setup.session_ms", median(setups), "ms"})
		for _, name := range []string{"journal.write", "journal.sync", "netwire.send_dgram", "netwire.recv_dgram",
			"netwire.dial", "netwire.stream_send", "netwire.stream_recv"} {
			res.layer = append(res.layer, figure{name + "_us", median(tr.span(name).samples), "us"})
		}
		for _, name := range []string{"wirefmt.encode", "wirefmt.decode"} {
			res.layer = append(res.layer, figure{name + "_ns", median(tr.span(name).samples) * 1000, "ns"})
		}
		for _, name := range sortedKeys(tr.spans) {
			if strings.HasPrefix(name, "core.apply.") {
				res.layer = append(res.layer, figure{name + "_us", median(tr.span(name).samples), "us"})
			}
		}
	}
	return res, nil
}

// latencyFigures reports a latency series' median and its highest
// percentile with at least ten samples beyond it, with the sample count.
func latencyFigures(name string, xs []float64) []figure {
	out := []figure{{name + "_n", float64(len(xs)), "count"}, {name + "_p50_ms", median(xs), "ms"}}
	if p := tailPercentile(len(xs)); p > 50 {
		out = append(out, figure{fmt.Sprintf("%s_p%g_ms", name, p), percentile(xs, p), "ms"})
	}
	return out
}

// read records what the script's closing reads report.
func (o *sessionOutcome) read(route string, body []byte) error {
	switch route {
	case "metrics":
		return json.Unmarshal(body, &o.metrics)
	case "fingerprint":
		var v struct {
			Fingerprint string `json:"fingerprint"`
		}
		err := json.Unmarshal(body, &v)
		o.fingerprint = v.Fingerprint
		return err
	case "migrations":
		var ms []serve.MigrationView
		if err := json.Unmarshal(body, &ms); err != nil {
			return err
		}
		o.migrations = len(ms)
		for _, m := range ms {
			if m.Mode == "warm" {
				o.downtimes = append(o.downtimes, float64(m.DowntimeMs))
			}
			o.warmRounds += m.Rounds
			o.precopyKB += float64(m.PrecopyBytes) / 1024
		}
	case "jobs":
		// POST /v1/jobs answers one job, GET /v1/jobs all of them.
		if bytes.HasPrefix(bytes.TrimSpace(body), []byte("[")) {
			var js []serve.JobView
			if err := json.Unmarshal(body, &js); err != nil {
				return err
			}
			for _, j := range js {
				if j.Kind == serve.JobLoad && j.Latency != nil {
					o.reqP99Ms = j.Latency.P99 * 1000
				}
			}
		}
	}
	return nil
}

func addWireStats(res *result, st netwire.Stats) {
	res.add("netwire.dgrams", float64(st.Dgrams))
	res.add("netwire.dgram_packets", float64(st.DgramPackets))
	res.add("netwire.dgram_bytes", float64(st.DgramBytes))
	res.add("netwire.streams", float64(st.Streams))
	res.add("netwire.stream_frames", float64(st.StreamFrames))
	res.add("netwire.stream_bytes", float64(st.StreamBytes))
}

// replayJournal replays a session's journal headlessly and returns the
// resulting fingerprint and the replay kernel's event count (the live
// session's, since replay reproduces it). The traced replay applies the commands itself
// through serve.NewCore and Core.Apply, exactly as serve.Replay does, to
// time each command kind.
func replayJournal(path string, tr *tracer) (string, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	if tr == nil {
		c, err := serve.ReplayJournal(f)
		if err != nil {
			return "", 0, err
		}
		return c.FingerprintHex(), c.Kernel().EventsScheduled(), nil
	}
	tr.begin("replay")
	defer tr.end()
	data, err := serve.ReadJournal(f)
	if err != nil {
		return "", 0, err
	}
	c := serve.NewCore(data.Config, nil)
	for _, cmd := range data.Commands {
		tr.begin("core.apply." + string(cmd.Kind))
		err := c.Apply(cmd)
		tr.end()
		if err != nil && (errs.Is(err, serve.CodeReplay) || errs.Is(err, serve.CodeUnknownCommand)) {
			return "", 0, err
		}
	}
	return c.FingerprintHex(), c.Kernel().EventsScheduled(), nil
}

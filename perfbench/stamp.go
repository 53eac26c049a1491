package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp records the conditions a run was measured under.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"ncpu"`
	GoVersion  string `json:"go"`
	// Commit is the checkout's git commit when it is a git work tree,
	// otherwise "none"; Source hashes the Go sources and module files
	// either way, so runs of the same code carry the same value.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func stampNow() stamp {
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		Source:     sourceHash("."),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("# stamp gomaxprocs=%d ncpu=%d go=%s commit=%s source=%s",
		s.GOMAXPROCS, s.NumCPU, s.GoVersion, s.Commit, s.Source)
}

// gitCommit resolves HEAD from the .git directory without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "none"
}

// sourceHash hashes every .go, go.mod and go.sum file under root, skipping
// hidden directories (the build directory among them).
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only leaves the hash less specific
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(f))
		_, _ = io.Copy(h, fh) // a short read only leaves the hash less specific
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

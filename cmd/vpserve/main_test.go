package main

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a strings.Builder safe for the run goroutine + test reads.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// start runs the server on a free port and returns its base URL, the
// channel delivering fake signals to run, and run's result channel.
func start(t *testing.T, args ...string) (string, chan os.Signal, <-chan error) {
	t.Helper()
	signals := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errBuf syncBuffer
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...),
			io.Discard, &errBuf, signals, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, signals, done
	case err := <-done:
		t.Fatalf("run exited before ready: %v\nstderr: %s", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil, nil // unreachable; t.Fatal stops the test
}

// TestServeAndSigtermDrain boots the real server, serves a health check
// and one tiny experiment, then delivers SIGTERM mid-flight and checks the
// in-flight request completes before run returns.
func TestServeAndSigtermDrain(t *testing.T) {
	base, signals, done := start(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Fire an experiment request and deliver SIGTERM while it may still be
	// in flight; graceful drain must let it complete with a full body.
	type result struct {
		status int
		body   string
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/experiments/table3.1?tracelen=3000&workloads=gcc")
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		reqDone <- result{status: resp.StatusCode, body: string(body), err: err}
	}()
	time.Sleep(5 * time.Millisecond)
	signals <- syscall.SIGTERM

	res := <-reqDone
	if res.err != nil {
		t.Fatalf("in-flight request: %v", res.err)
	}
	if res.status != http.StatusOK || !strings.Contains(res.body, "Table 3.1") {
		t.Errorf("in-flight request: status %d, body %q", res.status, res.body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// TestBadFlags covers the CLI error paths.
func TestBadFlags(t *testing.T) {
	var errBuf syncBuffer
	if err := run([]string{"-addr", "not a real address"}, io.Discard, &errBuf, nil, nil); err == nil {
		t.Error("bad -addr accepted")
	}
	if err := run([]string{"positional"}, io.Discard, &errBuf, nil, nil); err == nil {
		t.Error("positional arguments accepted")
	}
	if err := run([]string{"-nonesuch"}, io.Discard, &errBuf, nil, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestJobAndShardFlagValidation pins the exit-2 paths of the serving
// refactor's flags: each bad value is a usage error (errUsage → exit 2),
// not a runtime failure.
func TestJobAndShardFlagValidation(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-shard", "banana"},
		{"-shard", "0/2"},
		{"-shard", "3/2"},
		{"-job-queue", "-5"},
		{"-disk-cache-entries", "-1"},
		{"-cache-dir", filepath.Join(blocker, "sub")},
	}
	for _, args := range cases {
		var errBuf syncBuffer
		err := run(args, io.Discard, &errBuf, nil, nil)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
			continue
		}
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want a usage error (exit 2)", args, err)
		}
	}
}

// TestHelpExitsZero pins that -h prints the usage text and run returns nil
// (exit 0), not the flag.ErrHelp error.
func TestHelpExitsZero(t *testing.T) {
	var errBuf syncBuffer
	if err := run([]string{"-h"}, io.Discard, &errBuf, nil, nil); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if !strings.Contains(errBuf.String(), "-max-concurrent") {
		t.Errorf("-h printed no usage text; stderr: %q", errBuf.String())
	}
}

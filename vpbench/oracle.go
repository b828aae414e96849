package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// tableSpec names one rendered table: an experiment run at a seed and trace
// length over a workload subset (nil = all eight).
type tableSpec struct {
	Exp       string
	Seed      int64
	Len       int
	Workloads []string
}

// key is the table's canonical name in the digest file. It doubles as the
// vpserve request path below /v1/experiments/.
func (t tableSpec) key() string {
	q := "seed=" + strconv.FormatInt(t.Seed, 10) + "&tracelen=" + strconv.Itoa(t.Len)
	if len(t.Workloads) > 0 {
		q += "&workloads=" + url.QueryEscape(strings.Join(t.Workloads, ","))
	}
	return t.Exp + "?" + q
}

// vpsimArgs are the vpsim flags that render the table at pool width 1 on
// the materialized trace path.
func (t tableSpec) vpsimArgs() []string {
	args := []string{"-experiment", t.Exp, "-seed", strconv.FormatInt(t.Seed, 10), "-len", strconv.Itoa(t.Len), "-workers", "1"}
	if len(t.Workloads) > 0 {
		args = append(args, "-workloads", strings.Join(t.Workloads, ","))
	}
	return args
}

// digestOf returns the hex SHA-256 of a rendered table.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestFile is the committed output oracle (digests.json).
type digestFile struct {
	Generator string            `json:"generator"`
	Seeds     []int64           `json:"seeds"`
	Tables    map[string]string `json:"tables"`
}

// generatorNote is recorded in digests.json so a reader knows which path
// produced the digests.
const generatorNote = "vpsim -workers 1, materialized traces, text rendering; sha256 of stdout"

func loadDigests(path string) (digestFile, error) {
	var f digestFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("read digests: %w", err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("decode %s: %w", path, err)
	}
	return f, nil
}

// oracle resolves the expected digest of any table: from the committed
// file when it holds the key, otherwise by rendering the table with the
// repository's own vpsim binary.
type oracle struct {
	committed map[string]string
	vpsim     string // path of the vpsim binary
	procs     int    // vpsim processes run at once
}

// expected returns the expected digest of every spec, keyed by spec key,
// and how many of them had to be rendered by vpsim.
func (o *oracle) expected(ctx context.Context, specs []tableSpec) (map[string]string, int, error) {
	out := make(map[string]string, len(specs))
	var todo []tableSpec
	for _, s := range specs {
		k := s.key()
		if _, seen := out[k]; seen {
			continue
		}
		if d, ok := o.committed[k]; ok {
			out[k] = d
			continue
		}
		out[k] = ""
		todo = append(todo, s)
	}
	got, err := renderWithVpsim(ctx, o.vpsim, o.procs, todo)
	if err != nil {
		return nil, 0, err
	}
	for k, d := range got {
		out[k] = d
	}
	return out, len(todo), nil
}

// renderWithVpsim renders each spec with vpsim, procs processes at a time,
// and returns the digests of their standard output by key.
func renderWithVpsim(ctx context.Context, vpsim string, procs int, specs []tableSpec) (map[string]string, error) {
	if procs < 1 {
		procs = 1
	}
	var (
		mu       sync.Mutex
		out      = make(map[string]string, len(specs))
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan tableSpec)
	)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				var stdout, stderr bytes.Buffer
				cmd := exec.CommandContext(ctx, vpsim, s.vpsimArgs()...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				err := cmd.Run()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("vpsim %s: %v: %s", strings.Join(s.vpsimArgs(), " "), err, strings.TrimSpace(stderr.String()))
				}
				out[s.key()] = digestOf(stdout.Bytes())
				mu.Unlock()
			}
		}()
	}
	for _, s := range specs {
		next <- s
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// tally counts the digests observed for each table key.
type tally struct {
	mu   sync.Mutex
	seen map[string]map[string]int // key -> digest -> count
	spec map[string]tableSpec
	errs int // operations that produced no table at all
	msgs []string
}

func newTally() *tally {
	return &tally{seen: map[string]map[string]int{}, spec: map[string]tableSpec{}}
}

// add records one rendered or served table.
func (t *tally) add(s tableSpec, digest string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := s.key()
	if t.seen[k] == nil {
		t.seen[k] = map[string]int{}
		t.spec[k] = s
	}
	t.seen[k][digest] += n
}

// fail records one operation that returned no table.
func (t *tally) fail(msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs++
	if len(t.msgs) < 5 {
		t.msgs = append(t.msgs, msg)
	}
}

// specs returns every observed table, sorted by key.
func (t *tally) specs() []tableSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []tableSpec
	for _, s := range t.spec {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// check compares every observation with the expected digests and returns
// the operations attempted and failed. A digest mismatch is a failed
// operation, as is an operation that returned no table.
func (t *tally) check(expected map[string]string) (attempted, failed int, msgs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	attempted, failed = t.errs, t.errs
	msgs = append(msgs, t.msgs...)
	keys := make([]string, 0, len(t.seen))
	for k := range t.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := expected[k]
		for d, n := range t.seen[k] {
			attempted += n
			if !ok || d != want {
				failed += n
				if len(msgs) < 10 {
					msgs = append(msgs, fmt.Sprintf("table %s: digest %.12s, want %.12s (%d times)", k, d, want, n))
				}
			}
		}
	}
	return attempted, failed, msgs
}

package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"valuepred/internal/plan"
	"valuepred/internal/tracestore"
)

// cacheFiles lists the entry files in a cache directory.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	return files
}

// TestDiskCacheWarmRestart is the acceptance check for the persistent
// cache: a freshly started server pointed at a warm cache directory
// serves the byte-identical table from disk — cache-hit counter up, zero
// simulations — exactly as if it had computed it.
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/experiments/table3.1" + tinyQuery

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	status, hdr, coldBody := get(t, ts1, path)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status = %d, X-Cache = %q", status, hdr.Get("X-Cache"))
	}
	if got := counter(s1, "serve.disk_cache_write"); got != 1 {
		t.Fatalf("disk_cache_write = %d, want 1", got)
	}
	if files := cacheFiles(t, dir); len(files) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(files))
	}

	// "Restart": a brand-new server (fresh LRU, fresh trace store, fresh
	// registry) sharing only the cache directory.
	s2, ts2 := newTestServer(t, Config{CacheDir: dir, Store: tracestore.New(0)})
	status, hdr, warmBody := get(t, ts2, path)
	if status != http.StatusOK || hdr.Get("X-Cache") != "disk" {
		t.Fatalf("warm request: status = %d, X-Cache = %q", status, hdr.Get("X-Cache"))
	}
	if warmBody != coldBody {
		t.Errorf("disk-served table differs from the original:\nwarm:\n%s\ncold:\n%s", warmBody, coldBody)
	}
	if sims := counter(s2, "serve.simulations"); sims != 0 {
		t.Errorf("restarted server simulated %d times, want 0", sims)
	}
	if hits := counter(s2, "serve.disk_cache_hit"); hits != 1 {
		t.Errorf("disk_cache_hit = %d, want 1", hits)
	}
	// The disk hit promoted the table into the LRU: the repeat is "hit".
	if _, hdr, _ := get(t, ts2, path); hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeat after disk hit: X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}
}

// TestDiskCacheStaleEntryIgnored pins the identity stamp: an entry
// written by a different toolchain (here: a doctored go_version) is never
// served — the server counts it stale, re-simulates, and overwrites it.
func TestDiskCacheStaleEntryIgnored(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/experiments/table3.1" + tinyQuery

	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, _, coldBody := get(t, ts1, path)

	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var entry map[string]json.RawMessage
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	var ident map[string]any
	if err := json.Unmarshal(entry["identity"], &ident); err != nil {
		t.Fatal(err)
	}
	ident["go_version"] = "go0.0-other-toolchain"
	doctored, err := json.Marshal(ident)
	if err != nil {
		t.Fatal(err)
	}
	entry["identity"] = doctored
	rewritten, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], rewritten, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{CacheDir: dir, Store: tracestore.New(0)})
	status, hdr, body := get(t, ts2, path)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("stale-entry request: status = %d, X-Cache = %q", status, hdr.Get("X-Cache"))
	}
	if body != coldBody {
		t.Errorf("re-simulated table differs from the original")
	}
	if got := counter(s2, "serve.disk_cache_stale"); got != 1 {
		t.Errorf("disk_cache_stale = %d, want 1", got)
	}
	if got := counter(s2, "serve.simulations"); got != 1 {
		t.Errorf("simulations = %d, want 1 (the stale entry must not be served)", got)
	}
	// The fresh run overwrote the stale entry: a third server hits it.
	s3, ts3 := newTestServer(t, Config{CacheDir: dir, Store: tracestore.New(0)})
	if _, hdr, _ := get(t, ts3, path); hdr.Get("X-Cache") != "disk" {
		t.Errorf("after overwrite: X-Cache = %q, want disk", hdr.Get("X-Cache"))
	}
	if got := counter(s3, "serve.simulations"); got != 0 {
		t.Errorf("third server simulated %d times, want 0", got)
	}
}

// TestDiskCacheEviction bounds the store: with a two-entry cache, the
// third distinct table evicts the oldest file.
func TestDiskCacheEviction(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir, DiskCacheEntries: 2})
	for _, id := range []string{"table3.1", "fig3.3", "fig5.1"} {
		if status, _, body := get(t, ts, "/v1/experiments/"+id+tinyQuery); status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", id, status, body)
		}
	}
	if files := cacheFiles(t, dir); len(files) > 2 {
		t.Errorf("cache dir has %d entries, want <= 2", len(files))
	}
	if got := counter(s, "serve.disk_cache_evict"); got < 1 {
		t.Errorf("disk_cache_evict = %d, want >= 1", got)
	}
}

// TestNewRejectsBadConfig covers the constructor's validation: a
// malformed shard and an unusable cache directory both fail loudly at
// startup (vpserve turns these into exit 2).
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Shard: plan.Shard{Index: 3, Of: 2}}); err == nil {
		t.Error("New accepted shard 3/2")
	}
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CacheDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Error("New accepted a cache dir under a regular file")
	}
}

// TestDiskTierServesEvictedTables is the regression test for a live
// server re-simulating what its own disk tier holds: with a one-entry
// memory tier over a cache directory, the requests A, B, A serve the
// second A from disk, byte-identically, after only two simulations.
func TestDiskTierServesEvictedTables(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir(), CacheEntries: 1})
	const a, b = "/v1/experiments/table3.1" + tinyQuery, "/v1/experiments/fig3.3" + tinyQuery
	_, _, first := get(t, ts, a)
	get(t, ts, b)
	status, hdr, again := get(t, ts, a)
	if status != http.StatusOK || hdr.Get("X-Cache") != "disk" {
		t.Errorf("evicted request: status = %d, X-Cache = %q, want 200 disk", status, hdr.Get("X-Cache"))
	}
	if again != first {
		t.Errorf("disk-served table differs from the original:\n%s\nwant:\n%s", again, first)
	}
	if sims := counter(s, "serve.simulations"); sims != 2 {
		t.Errorf("simulations = %d, want 2", sims)
	}
	if hits := counter(s, "serve.disk_cache_hit"); hits != 1 {
		t.Errorf("disk_cache_hit = %d, want 1", hits)
	}
}

// TestJobResultSurvivesRestart pins fetch by id against the disk tier: a
// job one server simulated is done, with its result, on a server
// restarted on the same cache directory — without simulating again. An
// id of the wrong shape is unknown there, whatever it spells.
func TestJobResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	status, _, body := post(t, ts1, "/v1/jobs?experiment=table3.1&tracelen=3000&workloads=gcc", "")
	if status != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body = %s", status, body)
	}
	id := decodeJob(t, body).ID
	waitState(t, ts1, id, "done")
	_, _, want := get(t, ts1, "/v1/jobs/"+id+"/result?format=csv")

	s2, ts2 := newTestServer(t, Config{CacheDir: dir, Store: tracestore.New(0)})
	rep := waitState(t, ts2, id, "done")
	if rep.Experiment != "table3.1" || rep.Result != "/v1/jobs/"+id+"/result" {
		t.Errorf("restarted status = %+v", rep)
	}
	status, _, got := get(t, ts2, rep.Result+"?format=csv")
	if status != http.StatusOK || got != want {
		t.Errorf("restarted result: status = %d, body:\n%s\nwant:\n%s", status, got, want)
	}
	if sims := counter(s2, "serve.simulations"); sims != 0 {
		t.Errorf("restarted server simulated %d times, want 0", sims)
	}
	for _, bad := range []string{"j..%2F..%2F" + id[1:], strings.ToUpper(id), id[:20]} {
		if status, _, body := get(t, ts2, "/v1/jobs/"+bad+"/result"); status != http.StatusNotFound {
			t.Errorf("id %q: status = %d, body = %s, want 404", bad, status, body)
		}
	}
}

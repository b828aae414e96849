package serve

// This file is the disk tier of the result store (DESIGN.md §14).
// Completed tables are written as JSON entries under an operator-supplied
// directory (vpserve -cache-dir), one file per job id, so results survive
// a restart and can be shared between replicas pointed at a common
// directory. A file is named after the id's hash part — the hash of the
// canonical request key — so it can be found from either.
//
// Every entry is stamped with the identity of the environment that
// produced it — the same tool/toolchain/platform fields obs.Manifest
// records for a run. The determinism contract (DESIGN.md §9) guarantees
// byte-identical tables only within one toolchain and architecture, so an
// entry whose stamp does not match the reading process is stale: ignored
// and eventually overwritten, never served.
//
// Writes are atomic (temp file in the same directory, then rename), which
// is also what makes a shared directory safe: a concurrent reader sees
// either the old entry or the new one, never a partial write. Two
// replicas racing to write the same key both write the same bytes-worth
// of table, so the loser of the rename race loses nothing.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"valuepred/internal/jobs"
	"valuepred/internal/stats"
)

// DefaultDiskCacheEntries bounds the on-disk table cache when
// Config.DiskCacheEntries is not set.
const DefaultDiskCacheEntries = 512

// diskFormatVersion is bumped whenever diskEntry's encoding changes;
// entries written under another version are stale.
const diskFormatVersion = 1

// diskIdentity stamps an entry with the environment that produced it,
// mirroring the fields obs.Manifest records. Comparable, so staleness is
// one struct equality.
type diskIdentity struct {
	Format    int    `json:"format"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// currentIdentity is the stamp for entries written by this process.
func currentIdentity() diskIdentity {
	return diskIdentity{
		Format:    diskFormatVersion,
		Tool:      "valuepred-serve",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// diskEntry is the wire form of one cached table. Key is stored verbatim
// and must hash to the file's job id, so a stray or misnamed file can
// never serve the wrong table.
type diskEntry struct {
	Identity   diskIdentity `json:"identity"`
	Key        string       `json:"key"`
	Experiment string       `json:"experiment"`
	Table      *stats.Table `json:"table"`
}

// diskCache is the content-addressed on-disk store. The mutex serializes
// this process's writes and eviction scans; cross-process safety rests on
// the rename protocol alone.
type diskCache struct {
	dir     string
	entries int

	mu sync.Mutex
}

// newDiskCache creates dir if needed and probes it for writability, so a
// misconfigured cache directory fails at construction instead of on the
// first completed simulation.
func newDiskCache(dir string, entries int) (*diskCache, error) {
	if entries <= 0 {
		entries = DefaultDiskCacheEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return &diskCache{dir: dir, entries: entries}, nil
}

// path maps a job id to its entry file, reporting false for a string
// that is not a job id's shape — "j" and 32 hex digits — which therefore
// names no entry (and cannot escape the directory).
func (d *diskCache) path(id string) (string, bool) {
	h, ok := strings.CutPrefix(id, "j")
	if _, err := hex.DecodeString(h); !ok || err != nil || len(h) != 32 {
		return "", false
	}
	return filepath.Join(d.dir, h+".json"), true
}

// get loads the entry for job id as a done result, its created and
// settled times both the file's write time. hit reports a servable
// table; stale reports an entry that exists but is unreadable, or stamped
// by a different environment, and is therefore skipped.
func (d *diskCache) get(id string) (r *result, hit, stale bool) {
	path, ok := d.path(id)
	if !ok {
		return nil, false, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, false, true
	}
	data := make([]byte, info.Size())
	var e diskEntry
	if _, err := io.ReadFull(f, data); err != nil || json.Unmarshal(data, &e) != nil {
		return nil, false, true
	}
	if e.Identity != currentIdentity() || jobs.IDFor(e.Key) != id || e.Table == nil {
		return nil, false, true
	}
	return &result{
		status: jobs.Status{
			ID: id, Key: e.Key, Experiment: e.Experiment, State: jobs.StateDone,
			Created: info.ModTime(), Settled: info.ModTime(),
		},
		value: e.Table,
	}, true, false
}

// put writes the entry atomically and then evicts the oldest entries
// beyond the cache's bound, returning how many were removed.
func (d *diskCache) put(key, experiment string, t *stats.Table) (evicted int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := json.MarshalIndent(diskEntry{
		Identity:   currentIdentity(),
		Key:        key,
		Experiment: experiment,
		Table:      t,
	}, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("serve: disk cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("serve: disk cache write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("serve: disk cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("serve: disk cache write: %w", err)
	}
	dst, _ := d.path(jobs.IDFor(key))
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("serve: disk cache write: %w", err)
	}
	return d.evictLocked(dst), nil
}

// evictLocked removes the oldest entries (by modification time, then
// name) beyond the cache bound, sparing keep — the file just written.
func (d *diskCache) evictLocked(keep string) (evicted int) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	type candidate struct {
		path string
		mod  int64
	}
	var files []candidate
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, candidate{filepath.Join(d.dir, e.Name()), info.ModTime().UnixNano()})
	}
	if len(files) <= d.entries {
		return 0
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path
	})
	for _, f := range files[:len(files)-d.entries] {
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			evicted++
		}
	}
	return evicted
}

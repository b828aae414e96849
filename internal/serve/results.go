package serve

// This file is the serving path's one result store (DESIGN.md §14). Every
// endpoint that names a job — the synchronous GET, the async submit,
// status and result fetches — resolves through it by job id
// (jobs.IDFor of the canonical request key): first the stored results,
// memory tier then disk tier, then the lifecycle index of jobs still
// queued, running or failed.

import (
	"container/list"
	"sort"
	"sync"

	"valuepred/internal/jobs"
	"valuepred/internal/stats"
)

// result is one done job as the store keeps it: its final status and
// the value it produced. Values are immutable once a runner returns them,
// so entries are shared by reference and rendered per request in whatever
// format the client asked for.
type result struct {
	status jobs.Status // State is always jobs.StateDone
	value  any         // *stats.Table, or *experiment.ShardFile for a shard artifact
}

// jobTable is every job the server can answer for, keyed by job id: the
// lifecycle index (an embedded jobs.Store) of queued, running and failed
// jobs, over the store of done results — a bounded LRU memory tier over
// the optional disk tier. A job's result is stored before the job
// settles and leaves the index, so no reader can miss it.
type jobTable struct {
	*jobs.Store
	disk *diskCache    // nil when no CacheDir is configured
	m    *serveMetrics // the owning server's counters

	mu    sync.Mutex
	limit int
	byID  map[string]*list.Element
	lru   *list.List // front = most recently used; values are *result
}

// newJobTable returns a table whose memory tier holds at most limit
// results (at least one) and whose index queues at most queue jobs
// (<= 0 selects jobs.DefaultQueueLimit).
func newJobTable(limit, queue int, disk *diskCache, m *serveMetrics) *jobTable {
	return &jobTable{
		Store: jobs.NewStore(0, queue),
		disk:  disk,
		m:     m,
		limit: max(limit, 1),
		byID:  make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// memory returns id's result from the memory tier, refreshing its
// recency.
func (t *jobTable) memory(id string) (*result, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(e)
	t.m.cacheHits.Inc()
	return e.Value.(*result), true
}

// lookup returns the stored result for id and the tier that held it:
// "hit" for memory, "disk" for the disk tier, whose entry is promoted
// into memory.
func (t *jobTable) lookup(id string) (*result, string, bool) {
	if r, ok := t.memory(id); ok {
		return r, "hit", true
	}
	if t.disk == nil {
		return nil, "", false
	}
	r, hit, stale := t.disk.get(id)
	switch {
	case hit:
		t.m.diskHits.Inc()
		t.remember(r)
		return r, "disk", true
	case stale:
		t.m.diskStale.Inc()
	default:
		t.m.diskMisses.Inc()
	}
	return nil, "", false
}

// put stores a done job's result on disk, for a table, and then in
// memory, so a client that has seen the job done can find its result on
// disk after a restart. Disk write failures are counted, not fatal: the
// result is served from memory either way.
func (t *jobTable) put(r *result) {
	defer t.remember(r)
	tab, ok := r.value.(*stats.Table)
	if !ok || t.disk == nil {
		return
	}
	evicted, err := t.disk.put(r.status.Key, r.status.Experiment, tab)
	if err != nil {
		t.m.diskErrors.Inc()
		return
	}
	t.m.diskWrites.Inc()
	if evicted > 0 {
		t.m.diskEvicts.Add(uint64(evicted))
	}
}

// remember inserts (or refreshes) r in the memory tier and evicts the
// least-recently-used results beyond its bound.
func (t *jobTable) remember(r *result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[r.status.ID]; ok {
		e.Value = r
		t.lru.MoveToFront(e)
	} else {
		t.byID[r.status.ID] = t.lru.PushFront(r)
	}
	for t.lru.Len() > t.limit {
		back := t.lru.Back()
		delete(t.byID, back.Value.(*result).status.ID)
		t.lru.Remove(back)
	}
	t.m.cacheSize.Set(int64(t.lru.Len()))
}

// List lists every job a client can see, in creation order: the index's
// queued, running and failed jobs, and the done ones the memory tier
// holds.
func (t *jobTable) List() []jobs.Status {
	out := t.Store.List()
	seen := make(map[string]bool, len(out))
	for _, st := range out {
		seen[st.ID] = true
	}
	t.mu.Lock()
	for e := t.lru.Front(); e != nil; e = e.Next() {
		if st := e.Value.(*result).status; !seen[st.ID] {
			out = append(out, st)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Created.Before(out[j].Created) })
	return out
}

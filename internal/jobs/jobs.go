// Package jobs is the deterministic lifecycle index behind the serve
// layer: one Job per canonical request key, with an id derived from the
// key (so resubmitting the same request is idempotent), a
// queued → running → done/failed lifecycle, and a bounded FIFO of jobs
// waiting for an execution slot.
//
// The index tracks lifecycle only, not results. A job that settles done
// leaves it at once: keeping results is the caller's job (internal/serve
// stores them, keyed by the same id, before it settles the job). A failed
// job stays, up to a bound, so pollers can read its error; creating the
// key again after Drop retries it. A job that never gets to run leaves
// through Reject, which settles it first, so no waiter is stranded.
//
// Execution policy — the semaphore, the simulation context — stays with
// the caller too: the store never runs anything and never blocks. Waiting
// for a result is the caller's select on Job.Done versus its own request
// context, which is what lets a job outlive the client that submitted it.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for NewStore arguments <= 0.
const (
	// DefaultRetention bounds how many failed jobs the store keeps so
	// pollers can read their errors; beyond it the oldest-failed are
	// evicted. Queued and running jobs are never evicted, and done jobs
	// leave at settle.
	DefaultRetention = 256
	// DefaultQueueLimit bounds the jobs waiting for an execution slot;
	// beyond it submissions are refused (the caller sheds load).
	DefaultQueueLimit = 64
)

// State is a job's lifecycle phase.
type State string

// The lifecycle states, in order.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// IDFor derives the deterministic job id for a canonical request key:
// "j" plus the first 128 bits of the key's SHA-256, hex-encoded. Equal
// requests always map to equal ids, across replicas and restarts.
func IDFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "j" + hex.EncodeToString(sum[:16])
}

// Job is one unit of work identified by its canonical request key. All
// mutable fields are guarded by mu; the result and error are additionally
// published by the close of done, so a waiter that returned from Done()
// may read them through Result without holding anything.
type Job struct {
	id         string
	key        string
	experiment string
	spec       any
	created    time.Time
	done       chan struct{}

	// Followers counts requests currently waiting on this job beyond the
	// one that created it; the serve layer's progress endpoint reports it.
	Followers atomic.Int64

	mu      sync.Mutex
	state   State
	result  any
	err     error
	settled time.Time
}

// ID returns the deterministic job id (IDFor of the key).
func (j *Job) ID() string { return j.id }

// Key returns the canonical request key the job was created under.
func (j *Job) Key() string { return j.key }

// Experiment returns the experiment id the job runs.
func (j *Job) Experiment() string { return j.experiment }

// Spec returns the opaque request payload stored at creation.
func (j *Job) Spec() any { return j.spec }

// Created returns the job's creation time.
func (j *Job) Created() time.Time { return j.created }

// Done returns the channel closed when the job settles.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the settled result and error. Valid only after Done()
// is closed; before that it returns (nil, nil).
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID         string
	Key        string
	Experiment string
	State      State
	Created    time.Time
	Settled    time.Time // zero until done/failed
	Followers  int64
	Err        string // non-empty only when failed
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:         j.id,
		Key:        j.key,
		Experiment: j.experiment,
		State:      j.state,
		Created:    j.created,
		Settled:    j.settled,
		Followers:  j.Followers.Load(),
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Store is the concurrency-safe job registry. Create it with NewStore.
type Store struct {
	mu         sync.Mutex
	byID       map[string]*Job
	order      []*Job // creation order, for List
	queue      []*Job // FIFO awaiting an execution slot
	failed     []*Job // settle order of retained failed jobs, for eviction
	retention  int
	queueLimit int
}

// NewStore returns a Store retaining at most retention failed jobs and
// queueing at most queueLimit waiting jobs (<= 0 selects the defaults).
func NewStore(retention, queueLimit int) *Store {
	if retention <= 0 {
		retention = DefaultRetention
	}
	if queueLimit <= 0 {
		queueLimit = DefaultQueueLimit
	}
	return &Store{
		byID:       make(map[string]*Job),
		retention:  retention,
		queueLimit: queueLimit,
	}
}

// Create returns the job for key, creating it in StateQueued if none
// exists. The boolean reports whether the job was created by this call;
// false means an existing job (in any state) was returned instead.
func (st *Store) Create(key, experiment string, spec any) (*Job, bool) {
	id := IDFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.byID[id]; ok {
		return j, false
	}
	j := &Job{
		id:         id,
		key:        key,
		experiment: experiment,
		spec:       spec,
		created:    time.Now(),
		done:       make(chan struct{}),
		state:      StateQueued,
	}
	st.byID[id] = j
	st.order = append(st.order, j)
	return j, true
}

// Get returns the job with the given id.
func (st *Store) Get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	return j, ok
}

// ByKey returns the job for the canonical request key.
func (st *Store) ByKey(key string) (*Job, bool) { return st.Get(IDFor(key)) }

// MarkRunning transitions the job to StateRunning.
func (st *Store) MarkRunning(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
}

// Enqueue appends the job to the waiting FIFO, reporting false (and
// leaving the store unchanged) when the queue is at its limit. The caller
// decides what refusal means — the serve layer sheds the request.
func (st *Store) Enqueue(j *Job) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.queue) >= st.queueLimit {
		return false
	}
	st.queue = append(st.queue, j)
	return true
}

// Dequeue pops the oldest waiting job, if any.
func (st *Store) Dequeue() (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.queue) == 0 {
		return nil, false
	}
	j := st.queue[0]
	st.queue = st.queue[1:]
	return j, true
}

// QueueLen reports how many jobs are waiting for a slot.
func (st *Store) QueueLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.queue)
}

// Settle publishes the job's result (done on nil err, failed otherwise)
// and closes its Done channel. A done job then leaves the store; a failed
// one is retained, and failed jobs beyond the store's limit are evicted
// oldest-first. It returns how many jobs were evicted so the caller can
// count them.
func (st *Store) Settle(j *Job, result any, err error) (evicted int) {
	j.settle(result, err)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		st.removeLocked(j)
		return 0
	}
	st.failed = append(st.failed, j)
	for len(st.failed) > st.retention {
		st.removeLocked(st.failed[0])
		st.failed = st.failed[1:]
		evicted++
	}
	return evicted
}

// Reject settles a job that lost admission — failed, with err — and
// removes it from the store. A request that found the job between Create
// and Reject wakes with err instead of waiting on a job that will never
// run; the key is free for the next Create.
func (st *Store) Reject(j *Job, err error) {
	j.settle(nil, err)
	st.Drop(j)
}

// settle records the outcome and wakes every waiter.
func (j *Job) settle(result any, err error) {
	j.mu.Lock()
	j.result, j.err = result, err
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.settled = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Drop removes the job from the store entirely: the id map, the creation
// order, the waiting queue and the failed log. The serve layer drops a
// failed job so the same key can be retried with a fresh run; a job that
// has not settled must leave through Reject instead.
func (st *Store) Drop(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, q := range st.queue {
		if q == j {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			break
		}
	}
	for i, f := range st.failed {
		if f == j {
			st.failed = append(st.failed[:i], st.failed[i+1:]...)
			break
		}
	}
	st.removeLocked(j)
}

// removeLocked deletes the job from the id map and creation order. The
// identity check keeps a stale handle (already evicted and re-created)
// from removing its successor.
func (st *Store) removeLocked(j *Job) {
	if cur, ok := st.byID[j.id]; ok && cur == j {
		delete(st.byID, j.id)
	}
	for i, o := range st.order {
		if o == j {
			st.order = append(st.order[:i], st.order[i+1:]...)
			return
		}
	}
}

// List snapshots every job the store tracks — queued, running and
// retained failed — in creation order.
func (st *Store) List() []Status {
	st.mu.Lock()
	jobs := append([]*Job(nil), st.order...)
	st.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Len reports how many jobs the store currently tracks.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

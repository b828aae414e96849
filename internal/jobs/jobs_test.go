package jobs

import (
	"errors"
	"fmt"
	"testing"
)

func TestIDForDeterministicAndDistinct(t *testing.T) {
	a := IDFor("fig3.3|seed=1|len=200000|seeds=1|wl=gcc,go")
	b := IDFor("fig3.3|seed=1|len=200000|seeds=1|wl=gcc,go")
	c := IDFor("fig3.3|seed=2|len=200000|seeds=1|wl=gcc,go")
	if a != b {
		t.Errorf("same key produced different ids: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different keys produced the same id: %s", a)
	}
	if len(a) != 33 || a[0] != 'j' {
		t.Errorf("unexpected id shape %q", a)
	}
}

func TestCreateIsIdempotentPerKey(t *testing.T) {
	st := NewStore(0, 0)
	j1, created := st.Create("k1", "fig3.3", nil)
	if !created {
		t.Fatal("first Create did not create")
	}
	j2, created := st.Create("k1", "fig3.3", nil)
	if created || j2 != j1 {
		t.Fatal("second Create for the same key did not return the existing job")
	}
	if j1.State() != StateQueued {
		t.Errorf("new job state = %s, want %s", j1.State(), StateQueued)
	}
	if got, ok := st.ByKey("k1"); !ok || got != j1 {
		t.Error("ByKey did not find the job")
	}
	if got, ok := st.Get(j1.ID()); !ok || got != j1 {
		t.Error("Get did not find the job")
	}
}

func TestLifecycleAndResult(t *testing.T) {
	st := NewStore(0, 0)
	j, _ := st.Create("k", "fig3.3", "spec")
	st.MarkRunning(j)
	if j.State() != StateRunning {
		t.Fatalf("state = %s, want running", j.State())
	}
	select {
	case <-j.Done():
		t.Fatal("Done closed before Settle")
	default:
	}
	st.Settle(j, 42, nil)
	<-j.Done() // must not block
	if j.State() != StateDone {
		t.Errorf("state = %s, want done", j.State())
	}
	res, err := j.Result()
	if res != 42 || err != nil {
		t.Errorf("Result() = (%v, %v), want (42, nil)", res, err)
	}
	if j.Spec() != "spec" {
		t.Errorf("Spec() = %v", j.Spec())
	}

	f, _ := st.Create("k2", "fig3.3", nil)
	st.Settle(f, nil, errors.New("boom"))
	if f.State() != StateFailed {
		t.Errorf("state = %s, want failed", f.State())
	}
	if s := f.Status(); s.Err != "boom" || s.Settled.IsZero() {
		t.Errorf("failed Status = %+v", s)
	}
}

// TestRetentionEvictsOldestSettled pins what the store keeps once a job
// settles: a done job leaves at once (its result is the caller's to
// keep), while failed jobs stay for pollers up to the retention bound,
// oldest-failed evicted first.
func TestRetentionEvictsOldestSettled(t *testing.T) {
	st := NewStore(2, 0)
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, _ := st.Create(fmt.Sprintf("k%d", i), "fig3.3", nil)
		jobs = append(jobs, j)
	}
	if n := st.Settle(jobs[0], 0, nil); n != 0 {
		t.Errorf("evicted %d on a done settle, want 0", n)
	}
	if _, ok := st.Get(jobs[0].ID()); ok {
		t.Error("done job still indexed after settle")
	}
	if res, err := jobs[0].Result(); res != 0 || err != nil {
		t.Errorf("done job's handle lost its result: (%v, %v)", res, err)
	}
	boom := errors.New("boom")
	if n := st.Settle(jobs[1], nil, boom); n != 0 {
		t.Errorf("evicted %d on first failure, want 0", n)
	}
	st.Settle(jobs[2], nil, boom)
	if n := st.Settle(jobs[3], nil, boom); n != 1 {
		t.Errorf("evicted %d on third failure, want 1", n)
	}
	if _, ok := st.Get(jobs[1].ID()); ok {
		t.Error("oldest failed job survived retention")
	}
	if _, ok := st.Get(jobs[2].ID()); !ok {
		t.Error("second failed job evicted too early")
	}
	// The never-settled job is untouchable by retention.
	if _, ok := st.Get(jobs[4].ID()); !ok {
		t.Error("unsettled job was evicted")
	}
	if st.Len() != 3 {
		t.Errorf("Len() = %d, want 3 (two failed, one queued)", st.Len())
	}
	// Done and evicted ids can be re-created.
	for _, k := range []string{"k0", "k1"} {
		if _, created := st.Create(k, "fig3.3", nil); !created {
			t.Errorf("re-creating %s did not create", k)
		}
	}
}

// TestRejectWakesWaiters pins the admission-loss path: a job rejected
// after Create settles failed with the refusal before it leaves, so a
// request that found it in between is woken with that error, and the key
// is free again.
func TestRejectWakesWaiters(t *testing.T) {
	st := NewStore(0, 1)
	j, _ := st.Create("k", "fig3.3", nil)
	st.Enqueue(j)
	follower, ok := st.ByKey("k")
	if !ok || follower != j {
		t.Fatal("ByKey did not find the published job")
	}
	refused := errors.New("no slot")
	st.Reject(j, refused)
	select {
	case <-follower.Done():
	default:
		t.Fatal("Reject left the job unsettled: its waiters would block forever")
	}
	if _, err := follower.Result(); err != refused {
		t.Errorf("waiter woke with %v, want the refusal", err)
	}
	if follower.State() != StateFailed {
		t.Errorf("state = %s, want failed", follower.State())
	}
	if _, ok := st.Get(j.ID()); ok || st.QueueLen() != 0 || len(st.List()) != 0 {
		t.Error("rejected job still tracked")
	}
	if _, created := st.Create("k", "fig3.3", nil); !created {
		t.Error("key not free after Reject")
	}
}

func TestQueueFIFOAndLimit(t *testing.T) {
	st := NewStore(0, 2)
	a, _ := st.Create("a", "x", nil)
	b, _ := st.Create("b", "x", nil)
	c, _ := st.Create("c", "x", nil)
	if !st.Enqueue(a) || !st.Enqueue(b) {
		t.Fatal("enqueue within limit refused")
	}
	if st.Enqueue(c) {
		t.Fatal("enqueue beyond limit accepted")
	}
	if st.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", st.QueueLen())
	}
	if j, ok := st.Dequeue(); !ok || j != a {
		t.Errorf("first Dequeue = %v, want job a", j)
	}
	if j, ok := st.Dequeue(); !ok || j != b {
		t.Errorf("second Dequeue = %v, want job b", j)
	}
	if _, ok := st.Dequeue(); ok {
		t.Error("Dequeue on empty queue reported ok")
	}
}

func TestDropClearsEveryStructure(t *testing.T) {
	st := NewStore(0, 0)
	j, _ := st.Create("k", "x", nil)
	st.Enqueue(j)
	st.Drop(j)
	if _, ok := st.Get(j.ID()); ok {
		t.Error("dropped job still resolvable")
	}
	if st.QueueLen() != 0 {
		t.Error("dropped job still queued")
	}
	if len(st.List()) != 0 {
		t.Error("dropped job still listed")
	}
	// Dropping a failed (settled) job frees the key for a retry.
	f, _ := st.Create("k", "x", nil)
	st.Settle(f, nil, errors.New("boom"))
	st.Drop(f)
	if _, created := st.Create("k", "x", nil); !created {
		t.Error("retry after dropping a failed job did not create")
	}
}

func TestListCreationOrder(t *testing.T) {
	st := NewStore(0, 0)
	for i := 0; i < 3; i++ {
		st.Create(fmt.Sprintf("k%d", i), "x", nil)
	}
	list := st.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d, want 3", len(list))
	}
	for i, s := range list {
		if want := IDFor(fmt.Sprintf("k%d", i)); s.ID != want {
			t.Errorf("List[%d].ID = %s, want %s", i, s.ID, want)
		}
	}
}

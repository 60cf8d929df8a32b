package pagecache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// emptyPool swaps a pool's constructor for one returning nil and drains
// what earlier tests left in it, so that every later Get goes through the
// constructor the caller installs next.
func emptyPool(p *sync.Pool) {
	p.New = func() any { return nil }
	for p.Get() != nil {
	}
}

// churn drives every eviction path — global reclaim, hard tenant-budget
// reclaim, RemoveRange, DropFile — and reports everything observable about
// the outcome.
func churn(t *testing.T) string {
	c := New(Config{BlockSize: 4096, CapacityPages: 512, Costs: simtime.DefaultCosts()},
		func(at simtime.Time, ino, lo, hi int64) (simtime.Time, error) {
			return at.Add(simtime.Microsecond), nil
		})
	rec := telemetry.NewRecorder(4096)
	c.SetTelemetry(rec)
	c.SetTenantBudget(2, 64, 96)
	tl := simtime.NewTimeline(0)
	for round := int64(0); round < 6; round++ {
		for ino := int64(1); ino <= 3; ino++ {
			fc := c.File(ino)
			lo := round * 100
			fc.InsertRange(tl, lo, lo+90, InsertOptions{MarkerAt: lo + 10, Origin: telemetry.OriginReadahead,
				Tenant: int(ino), Dirty: round%2 == 0})
			fc.LookupRange(tl, lo, lo+40)
			fc.RemoveRange(tl, lo+50, lo+60)
		}
	}
	c.DropFile(tl, 2)
	s := c.Stats()
	return fmt.Sprintf("%+v now=%d tenants=%+v wasted=%d cached=%d/%d", s, tl.Now(), c.TenantStats(),
		rec.CounterValue(telemetry.CtrPrefetchWastedPages), c.File(1).CachedPages(), c.File(3).CachedPages())
}

// TestEvictScratchPoolAudit is the pooled-object audit for evictScratch:
// the eviction paths are handed a scratch with every field dirtied — a
// previous pass's victims, dirty list and wasted list, none of them valid
// any more — and must evict exactly as with a fresh one.
func TestEvictScratchPoolAudit(t *testing.T) {
	if n := reflect.TypeOf(evictScratch{}).NumField(); n != 3 {
		t.Fatalf("evictScratch has %d fields, this audit dirties 3: add the new one", n)
	}
	fresh := scratchPool.New
	defer func() { scratchPool.New = fresh }()
	dirty := func() any {
		sc := &evictScratch{}
		for i := 0; i < 300; i++ {
			// Stale frame ids would evict pages nobody selected.
			sc.victims = append(sc.victims, frameID(i+1))
			sc.dirty = append(sc.dirty, frameID(i+1))
			sc.wasted = append(sc.wasted, frameID(i+1))
		}
		return sc
	}
	emptyPool(&scratchPool)
	scratchPool.New = fresh
	want := churn(t)
	emptyPool(&scratchPool)
	scratchPool.New = dirty
	if got := churn(t); got != want {
		t.Errorf("a dirtied evictScratch leaks into its next use\nfresh %s\ndirty %s", want, got)
	}
}

// TestIndexNodePoolAudit is the pooled-object audit for indexNode. A node
// has no reset: the contract is that it goes back to the pool only once
// every slot is clear again. So after a churn that retires nodes through
// every path, each node in the pool must be indistinguishable from a new
// one, field by field.
func TestIndexNodePoolAudit(t *testing.T) {
	if n := reflect.TypeOf(indexNode{}).NumField(); n != 2 {
		t.Fatalf("indexNode has %d fields, this audit checks 2: add the new one", n)
	}
	fresh := nodePool.New
	defer func() { nodePool.New = fresh }()
	emptyPool(&nodePool)
	nodePool.New = fresh
	churn(t)
	nodePool.New = func() any { return nil }
	pooled := 0
	for x := nodePool.Get(); x != nil; x = nodePool.Get() {
		pooled++
		if node := x.(*indexNode); *node != (indexNode{}) {
			t.Fatalf("a recycled index node still carries state: n=%d slots=%v", node.n, node.slots)
		}
	}
	if pooled == 0 && !raceEnabled {
		t.Fatal("the churn recycled no index node: the audit checked nothing")
	}
}

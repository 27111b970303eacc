package main

import (
	"fmt"

	"ebrrq"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// Operation classes, in the order every per-class array uses.
const (
	opInsert = iota
	opDelete
	opContains
	opRQ
	numClasses
)

var classNames = [numClasses]string{"insert", "delete", "contains", "rq"}

// mixUnits is the denominator of a role's operation shares.
const mixUnits = 2000

// role is one worker's operation mix, in shares of mixUnits.
type role [numClasses]int

// numWorkers is the closed loop's client count: every workload is driven by
// exactly two goroutines that each wait for their reply.
const numWorkers = 2

// workload is one benchmark scenario: which set is built and what the two
// workers ask of it.
type workload struct {
	name      string
	why       string
	structure ebrrq.DataStructure
	mode      ebrrq.Mode
	technique ebrrq.Technique // nil selects EBR
	shards    int             // 0 builds a plain Set
	keyRange  int64           // keys are uniform over [0, keyRange)
	rqWidth   int64           // keys spanned by one range query
	roles     [numWorkers]role
}

var (
	updateHeavy = role{opInsert: 999, opDelete: 999, opRQ: 2}
	updateOnly  = role{opInsert: 1000, opDelete: 1000}
	scanOnly    = role{opRQ: mixUnits}
	readMostly  = role{opContains: 1600, opInsert: 180, opDelete: 180, opRQ: 40}
)

var workloads = []workload{
	{
		name:      "upd-skiplist-lf",
		why:       "update path (DCSS UpdateCAS, epoch retire/rotate/reclaim, node allocation) does nearly all the work; RQ machinery almost none",
		structure: ebrrq.SkipList, mode: ebrrq.LockFree,
		keyRange: 1 << 19, rqWidth: 100,
		roles: [numWorkers]role{updateHeavy, updateHeavy},
	},
	{
		name:      "scan-abtree-lf",
		why:       "a dedicated scanner beside a dedicated updater: the RQ path (timestamp, announcement scan, limbo sweep) dominates on multi-key nodes",
		structure: ebrrq.ABTree, mode: ebrrq.LockFree,
		keyRange: 1 << 20, rqWidth: 100,
		roles: [numWorkers]role{updateOnly, scanOnly},
	},
	{
		name:      "point-skiplist-htm",
		why:       "read-mostly serving mix on a cache-resident set: traversal and the Set facade dominate, so RQ and reclamation changes predict no change",
		structure: ebrrq.SkipList, mode: ebrrq.HTM,
		keyRange: 1 << 18, rqWidth: 100,
		roles: [numWorkers]role{readMostly, readMostly},
	},
	{
		name:      "sharded-bundle-scan",
		why:       "the only path through the Sharded router, the Bundle technique and long result slices: 65536-key scans beside an updater",
		structure: ebrrq.SkipList, mode: ebrrq.LockFree, technique: ebrrq.Bundle,
		shards: 4, keyRange: 1 << 19, rqWidth: 1 << 16,
		roles: [numWorkers]role{updateOnly, scanOnly},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one generated operation; hi is used by range queries only.
type op struct {
	kind    int
	key, hi int64
}

// opGen is a worker's deterministic operation stream: a splitmix64 sequence
// seeded from the run seed and the worker index, mapped onto the role's mix
// and the workload's key range. The set sees nothing but these operations.
type opGen struct {
	state    uint64
	cut      [numClasses]uint64 // cumulative shares
	keyRange uint64
	rqWidth  uint64
}

func newOpGen(seed int64, worker int, r role, keyRange, rqWidth int64) *opGen {
	g := &opGen{state: uint64(seed*1000 + int64(worker)), keyRange: uint64(keyRange), rqWidth: uint64(rqWidth)}
	sum := 0
	for c, share := range r {
		sum += share
		g.cut[c] = uint64(sum)
	}
	if sum != mixUnits {
		panic(fmt.Sprintf("role shares sum to %d, want %d", sum, mixUnits))
	}
	return g
}

func (g *opGen) rand() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *opGen) next() op {
	c := g.rand() % mixUnits
	x := g.rand() >> 8
	switch {
	case c < g.cut[opInsert]:
		return op{kind: opInsert, key: int64(x % g.keyRange)}
	case c < g.cut[opDelete]:
		return op{kind: opDelete, key: int64(x % g.keyRange)}
	case c < g.cut[opContains]:
		return op{kind: opContains, key: int64(x % g.keyRange)}
	}
	lo := int64(x % (g.keyRange - g.rqWidth + 1))
	return op{kind: opRQ, key: lo, hi: lo + int64(g.rqWidth) - 1}
}

// handle is the per-goroutine surface the workers drive; *ebrrq.Thread and
// *ebrrq.ShardedThread both provide it.
type handle interface {
	Insert(key, value int64) bool
	Delete(key int64) bool
	Contains(key int64) (int64, bool)
	RangeQuery(low, high int64) []ebrrq.KV
	LastRQTimestamp() uint64
	Close()
}

// maxThreads bounds registered handles per set: two workers, the prefill
// thread, the probe thread, and room for a worker to re-register after a
// recovered panic before its old slot is recycled.
const maxThreads = 8

// target is the set under test: exactly one of set and sharded is non-nil.
type target struct {
	set     *ebrrq.Set
	sharded *ebrrq.Sharded
}

// hooks are the observation points attached to a build; the zero value
// attaches nothing and leaves the library's hot paths uninstrumented.
type hooks struct {
	metrics  *obs.Registry
	trace    *trace.Recorder
	recorder rqprov.Recorder
}

// build constructs the workload's set over keyRange keys.
func (w *workload) build(keyRange int64, h hooks) (*target, error) {
	if w.shards > 0 {
		s, err := ebrrq.NewShardedWithOptions(w.structure, w.mode, maxThreads, w.shards, ebrrq.ShardedOptions{
			Technique: w.technique,
			Recorder:  h.recorder,
			Metrics:   h.metrics,
			Trace:     h.trace,
			KeyMin:    0,
			KeyMax:    keyRange - 1,
		})
		if err != nil {
			return nil, err
		}
		return &target{sharded: s}, nil
	}
	s, err := ebrrq.NewWithOptions(w.structure, w.mode, maxThreads, ebrrq.Options{
		Technique: w.technique,
		Recorder:  h.recorder,
		Metrics:   h.metrics,
		Trace:     h.trace,
	})
	if err != nil {
		return nil, err
	}
	return &target{set: s}, nil
}

func (t *target) newThread() (handle, error) {
	if t.sharded != nil {
		return t.sharded.TryNewThread()
	}
	return t.set.TryNewThread()
}

// checkerTid is the thread id a handle's range queries are logged under in
// a validate.Checker: unique per live goroutine, as the checker requires.
func checkerTid(h handle) int {
	if st, ok := h.(*ebrrq.ShardedThread); ok {
		return st.ShardThread(0).ID()
	}
	return h.(*ebrrq.Thread).ID()
}

// limbo returns the nodes and approximate bytes awaiting reclamation.
func (t *target) limbo() (nodes, bytes int64) {
	if t.sharded != nil {
		for i := 0; i < t.sharded.Shards(); i++ {
			sh := t.sharded.Shard(i)
			nodes += sh.UnreclaimedNodes()
			bytes += sh.UnreclaimedBytes()
		}
		return nodes, bytes
	}
	return t.set.UnreclaimedNodes(), t.set.UnreclaimedBytes()
}

// prefill inserts distinct uniform keys, single-threaded, until half the key
// range is present. The key sequence depends only on the seed.
func (t *target) prefill(seed int64, keyRange int64) error {
	h, err := t.newThread()
	if err != nil {
		return err
	}
	defer h.Close()
	g := newOpGen(seed, numWorkers, role{opInsert: mixUnits}, keyRange, 1)
	for n := int64(0); n < keyRange/2; {
		if k := g.next().key; h.Insert(k, k) {
			n++
		}
	}
	return nil
}

package ebrrq

import (
	"ebrrq/internal/bundle"
	"ebrrq/internal/epoch"
	"ebrrq/internal/obs"
	"ebrrq/internal/rqprov"
	"ebrrq/internal/trace"
)

// Bundle is the bundled-references Technique (Nelson-Slivon, Hassan and
// Palmieri; internal/bundle): every list link carries a timestamp-ordered
// version history, a range query dereferences per link the newest version
// below its timestamp, and version garbage is pruned against the oldest
// active query. Updates pay one or two bundle-entry prepends; range
// queries never scan announcements or limbo.
//
// Supported structures: LazyList and SkipList (the bundled structures of
// the original paper). The Mode dimension collapses for this technique —
// update synchronization is the structures' own fine-grained locking, so
// Lock, HTM and LockFree all select the same implementation (accepted for
// benchmark-matrix symmetry; Unsafe, Snap and RLU are EBR-family
// baselines and are rejected).
var Bundle Technique = bundleTechnique{}

type bundleTechnique struct{}

func (bundleTechnique) String() string { return "bundle" }

// Supports reports the bundled structures: the two list shapes, under any
// timestamp-capable mode name.
func (bundleTechnique) Supports(d DataStructure, m Mode) bool {
	if d != LazyList && d != SkipList {
		return false
	}
	return m == Lock || m == HTM || m == LockFree
}

func (bundleTechnique) newSet(d DataStructure, m Mode, maxThreads int, opt Options, reg *obs.Registry) (techSet, error) {
	prov := bundle.New(bundle.Config{
		MaxThreads:     maxThreads,
		Recorder:       opt.Recorder,
		Clock:          opt.Clock,
		Trace:          opt.Trace,
		TraceLabel:     opt.TraceLabel,
		LimboSoftLimit: opt.LimboSoftLimit,
		LimboHardLimit: opt.LimboHardLimit,
		PressureWait:   opt.PressureWait,
	})
	if reg != nil {
		prov.EnableMetrics(reg)
	}
	b := &bundleSet{prov: prov}
	switch d {
	case LazyList:
		b.list = bundle.NewList(prov)
	case SkipList:
		b.skip = bundle.NewSkipList(prov)
	}
	return b, nil
}

type bundleSet struct {
	prov *bundle.Provider
	list *bundle.List // exactly one of list/skip is non-nil
	skip *bundle.SkipList
}

func (b *bundleSet) newThread() (techThread, error) {
	bt, err := b.prov.TryRegister()
	if err != nil {
		return nil, err
	}
	return &bundleThread{set: b, bt: bt}, nil
}

func (b *bundleSet) domain() *epoch.Domain         { return b.prov.Domain() }
func (b *bundleSet) clock() rqprov.TimestampSource { return b.prov.Clock() }
func (b *bundleSet) health() obs.HealthCheck       { return b.prov.Health() }
func (b *bundleSet) htmAborts() uint64             { return 0 }

// BundleProvider exposes the bundle provider to in-repo harnesses (chaos
// tests, the bench loop's GC hooks); nil when the set's technique is not
// Bundle.
func (s *Set) BundleProvider() *bundle.Provider {
	if b, ok := s.impl.(*bundleSet); ok {
		return b.prov
	}
	return nil
}

type bundleThread struct {
	set *bundleSet
	bt  *bundle.Thread
}

func (t *bundleThread) insert(key, value int64) bool {
	if l := t.set.list; l != nil {
		return l.Insert(t.bt, key, value)
	}
	return t.set.skip.Insert(t.bt, key, value)
}

func (t *bundleThread) remove(key int64) bool {
	if l := t.set.list; l != nil {
		return l.Delete(t.bt, key)
	}
	return t.set.skip.Delete(t.bt, key)
}

func (t *bundleThread) contains(key int64) (int64, bool) {
	if l := t.set.list; l != nil {
		return l.Contains(t.bt, key)
	}
	return t.set.skip.Contains(t.bt, key)
}

func (t *bundleThread) rangeQuery(low, high int64) []KV {
	if l := t.set.list; l != nil {
		return l.RangeQuery(t.bt, low, high)
	}
	return t.set.skip.RangeQuery(t.bt, low, high)
}

func (t *bundleThread) id() int                { return t.bt.ID() }
func (t *bundleThread) close()                 { t.bt.Deregister() }
func (t *bundleThread) abort()                 { t.bt.Abort() }
func (t *bundleThread) admitUpdate() error     { return t.bt.AdmitUpdate() }
func (t *bundleThread) traceRing() *trace.Ring { return t.bt.TraceRing() }
func (t *bundleThread) lastRQTS() uint64       { return t.bt.LastRQTS() }
func (t *bundleThread) pinEpoch()              { t.bt.PinEpoch() }
func (t *bundleThread) unpinEpoch()            { t.bt.UnpinEpoch() }
func (t *bundleThread) pinTimestamp(ts uint64) { t.bt.PinTimestamp(ts) }

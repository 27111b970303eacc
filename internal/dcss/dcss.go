// Package dcss implements Harris, Fraser and Pratt's double-compare
// single-swap (DCSS) primitive (DISC '02), specialised for the lock-free
// range-query provider of Arbel-Raviv and Brown (PPoPP '18).
//
// DCSS atomically: reads two locations, checks both against expected values,
// and if they match writes a new value to the second. The lock-free provider
// uses it to perform a data structure's linearizing CAS only if the global
// range-query timestamp TS still holds the value the updater read — so the
// timestamp recorded in inserted/deleted nodes is exactly TS at the moment
// the update linearizes.
//
// Slots hold machine-word values that are either data-structure pointers
// (optionally carrying data-structure flags in bits 1-2, e.g. the Harris
// list's mark bit) or a DCSS descriptor pointer tagged with bit 0. All
// reads of a slot go through Load, which helps any installed descriptor to
// completion before returning, so data-structure code never observes a
// descriptor.
//
// Descriptors carry a payload — the timestamp plus the nodes the update
// inserts and deletes — so that a range query encountering a node whose
// itime/dtime is not yet set can find the responsible descriptor in the
// provider's announcement array, help the DCSS complete, and learn the
// timestamp without waiting (the paper's wait-free TryAdd).
//
// Every attempt runs on a descriptor that is fresh to every thread that can
// reach it: either newly allocated, or recycled by its owner (Reset) after an
// epoch grace period during which no critical section that could have seen
// it is still running — the provider pools descriptors per thread on the EBR
// epochs that already protect nodes (DESIGN.md §11). A descriptor's address
// is therefore never reused while any helper still references it, which
// rules out descriptor-pointer ABA and replaces the manual sequence-number
// validation the C++ implementation needs. This package only assumes that
// discipline; it does no pooling itself.
package dcss

import (
	"sync/atomic"
	"unsafe"

	"ebrrq/internal/epoch"
	"ebrrq/internal/fault"
)

const (
	descTag  = uintptr(1) // bit 0: slot holds a DCSS descriptor
	flagMask = uintptr(6) // bits 1-2: reserved for data-structure flags
	ptrMask  = ^uintptr(7)
)

// Pack combines a data pointer with data-structure flag bits (a subset of
// bits 1-2). The result is stored in slots as a single word. Tagging uses
// unsafe.Add so the result remains an interior pointer of the same
// allocation (GC-safe).
func Pack(p unsafe.Pointer, flags uintptr) unsafe.Pointer {
	// The zero-offset case must bypass unsafe.Add: the compiler assumes
	// unsafe.Add results are non-nil, which breaks nil comparisons after
	// a round-trip. Flags must never be applied to a nil pointer.
	if flags&flagMask == 0 {
		return p
	}
	return unsafe.Add(p, int(flags&flagMask))
}

// Ptr strips tag and flag bits from a slot value.
func Ptr(v unsafe.Pointer) unsafe.Pointer {
	off := uintptr(v) &^ ptrMask
	if off == 0 {
		return v // untagged (possibly nil): see Pack for why this bypass
	}
	return unsafe.Add(v, -int(off))
}

// Flags extracts the data-structure flag bits from a slot value.
func Flags(v unsafe.Pointer) uintptr {
	return uintptr(v) & flagMask
}

func isDesc(v unsafe.Pointer) bool { return uintptr(v)&descTag != 0 }

func packDesc(d *Descriptor) unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(d), int(descTag))
}

func unpackDesc(v unsafe.Pointer) *Descriptor {
	return (*Descriptor)(unsafe.Add(v, -int(uintptr(v)&descTag)))
}

// Slot is a word-sized shared location that supports plain CAS and DCSS.
// The zero value holds nil.
type Slot struct {
	p unsafe.Pointer
}

// Store unconditionally stores a data value. Intended for initialisation of
// nodes before they are published.
func (s *Slot) Store(v unsafe.Pointer) {
	atomic.StorePointer(&s.p, v)
}

// Load returns the slot's current data value, helping any installed DCSS
// descriptor to completion first.
func (s *Slot) Load() unsafe.Pointer {
	for {
		v := atomic.LoadPointer(&s.p)
		if !isDesc(v) {
			return v
		}
		unpackDesc(v).complete()
	}
}

// CAS performs a compare-and-swap between data values, helping and retrying
// if a DCSS descriptor occupies the slot. It returns false only if the
// slot's (resolved) value differs from old.
func (s *Slot) CAS(old, new unsafe.Pointer) bool {
	for {
		if atomic.CompareAndSwapPointer(&s.p, old, new) {
			return true
		}
		v := atomic.LoadPointer(&s.p)
		if isDesc(v) {
			unpackDesc(v).complete()
			continue
		}
		if v != old {
			return false
		}
		// v == old: the failed CAS raced with a helper removing a
		// descriptor; retry.
	}
}

// Status of a DCSS operation.
type Status uint32

const (
	// Undecided: the operation's outcome is not yet determined.
	Undecided Status = iota
	// Succeeded: both comparisons matched; the new value was installed.
	Succeeded
	// FailedA1: the first location (TS) did not match; slot unchanged.
	FailedA1
	// FailedValue: the slot did not contain the expected old value.
	FailedValue
)

// Descriptor holds the arguments and payload of one DCSS operation. Every
// attempt takes a different Descriptor, either new or Reset by its owner
// after a grace period; one is never re-armed while it can still be reached.
type Descriptor struct {
	// A1 and Exp1 are the first (compare-only) location and its expected
	// value; in the provider this is the global timestamp TS, and Exp1 is
	// also the timestamp recorded for the update.
	A1   *atomic.Uint64
	Exp1 uint64
	// S, Old, New are the second location and the CAS arguments.
	S        *Slot
	Old, New unsafe.Pointer

	// Payload for range-query helping.
	INodes []*epoch.Node
	DNodes []*epoch.Node

	status atomic.Uint32
}

// Exec runs the DCSS operation to completion and returns its status (never
// Undecided). FailedValue means the slot's value differed from Old; FailedA1
// means TS changed — the caller typically re-reads TS and retries with
// another descriptor.
func (d *Descriptor) Exec() Status {
	for {
		if atomic.CompareAndSwapPointer(&d.S.p, d.Old, packDesc(d)) {
			return d.complete()
		}
		v := atomic.LoadPointer(&d.S.p)
		if isDesc(v) {
			unpackDesc(v).complete()
			continue
		}
		if v != d.Old {
			return FailedValue
		}
	}
}

// Help completes the operation if it has been installed; any thread may call
// it. It is used by range queries that find the descriptor in the provider's
// announcement array — which the owner publishes BEFORE installing the
// descriptor in the slot — so unlike complete (whose callers found the
// descriptor in the slot), Help must tolerate an uninstalled descriptor: it
// returns Undecided without deciding. Deciding an uninstalled DCSS would
// linearize the update while the slot still shows the old value to plain
// readers; concretely, a helper could publish a deletion's dtime from a
// pre-advance timestamp while the node is still unmarked in the structure,
// and a later range query at a newer timestamp would observe the "deleted"
// key — the spurious-key validation failures reproduced by the skiplist
// schedule-stress harness.
//
// The check is race-free: once installed, a descriptor leaves the slot only
// after its status is decided, and every attempt uses a descriptor that is
// fresh or was recycled only after a grace period (no reinstallation while a
// helper holds it), so observing status == Undecided and the descriptor in
// the slot guarantees it is still installed when complete decides.
func (d *Descriptor) Help() Status {
	if Status(d.status.Load()) != Undecided {
		return d.complete() // decided; finalisation is idempotent
	}
	if atomic.LoadPointer(&d.S.p) != packDesc(d) {
		return Undecided // announced but not yet installed: cannot decide
	}
	return d.complete()
}

// StatusNow returns the operation's current status without helping.
func (d *Descriptor) StatusNow() Status { return Status(d.status.Load()) }

// Reset returns a finished descriptor to the state of a new one — Undecided,
// no slot, no values, empty payload — keeping only the payload slices'
// backing arrays, so its owner can arm it for another operation with plain
// stores. The caller must guarantee that no other thread can still hold a
// reference: the descriptor is out of every slot and announcement, and every
// critical section that could have read it from one has ended.
func (d *Descriptor) Reset() {
	d.S, d.Old, d.New = nil, nil, nil
	clear(d.INodes)
	clear(d.DNodes)
	d.INodes, d.DNodes = d.INodes[:0], d.DNodes[:0]
	d.status.Store(uint32(Undecided))
}

// complete decides and finalises an installed descriptor. Multiple threads
// may run it concurrently; the first status CAS decides the outcome and the
// finalising slot CAS is idempotent.
func (d *Descriptor) complete() Status {
	fault.Inject("dcss.help")
	if Status(d.status.Load()) == Undecided {
		dec := Succeeded
		if d.A1.Load() != d.Exp1 {
			dec = FailedA1
		}
		d.status.CompareAndSwap(uint32(Undecided), uint32(dec))
	}
	st := Status(d.status.Load())
	if st == Succeeded {
		atomic.CompareAndSwapPointer(&d.S.p, packDesc(d), d.New)
	} else {
		atomic.CompareAndSwapPointer(&d.S.p, packDesc(d), d.Old)
	}
	return st
}

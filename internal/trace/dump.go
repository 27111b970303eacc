package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Binary dump format (little-endian, version 2):
//
//	magic   "EBRQTRC2"                     8 bytes
//	wall    unix nanoseconds              u64
//	mono    Now() at snapshot             u64
//	refused rings refused past MaxRings   u64
//	nrings                                u32
//	  per ring: labelLen u16, label bytes, nevents u32,
//	    per event: seq u64, time u64, type u8, arg1 u64, arg2 u64
//	nslow                                 u32
//	  per slow op: labelLen u16, label, kind u64, dur u64, end u64,
//	    nevents u32, events as above
//
// The format is versioned via the magic's trailing digit. Version 2 has
// the version-1 layout but a renumbered EventType space, so a version-1 dump
// would decode to the wrong event names and is refused.

const (
	dumpMagic   = "EBRQTRC2"
	dumpMagicV1 = "EBRQTRC1"
)

// Sanity caps for the reader: a corrupt header must not drive allocation.
const (
	maxDumpRings      = 1 << 20
	maxDumpEvents     = 1 << 24
	maxDumpSlowOps    = 1 << 20
	maxDumpLabelBytes = 1 << 12
)

// WriteTo serializes the snapshot in the binary dump format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	wr := &leWriter{w: cw}
	wr.bytes([]byte(dumpMagic))
	wr.u64(uint64(s.Wall.UnixNano()))
	wr.u64(uint64(s.Mono))
	wr.u64(s.RefusedRings)
	wr.u32(uint32(len(s.Rings)))
	for _, rg := range s.Rings {
		wr.label(rg.Label)
		wr.events(rg.Events)
	}
	wr.u32(uint32(len(s.SlowOps)))
	for _, op := range s.SlowOps {
		wr.label(op.Label)
		wr.u64(op.Kind)
		wr.u64(uint64(op.Dur))
		wr.u64(uint64(op.End))
		wr.events(op.Events)
	}
	if wr.err != nil {
		return cw.n, wr.err
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadSnapshot parses a binary dump produced by WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	rd := &leReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(dumpMagic))
	if _, err := io.ReadFull(rd.r, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) == dumpMagicV1 {
		return nil, errors.New("trace: version 1 dump, re-record (event types were renumbered in version 2)")
	}
	if string(magic) != dumpMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, dumpMagic)
	}
	s := &Snapshot{}
	s.Wall = time.Unix(0, int64(rd.u64()))
	s.Mono = int64(rd.u64())
	s.RefusedRings = rd.u64()
	nr := rd.count(maxDumpRings, "rings")
	for i := 0; i < nr && rd.err == nil; i++ {
		rg := RingSnap{Label: rd.label()}
		rg.Events = rd.events()
		s.Rings = append(s.Rings, rg)
	}
	ns := rd.count(maxDumpSlowOps, "slow ops")
	for i := 0; i < ns && rd.err == nil; i++ {
		op := SlowOp{Label: rd.label()}
		op.Kind = rd.u64()
		op.Dur = time.Duration(rd.u64())
		op.End = int64(rd.u64())
		op.Events = rd.events()
		s.SlowOps = append(s.SlowOps, op)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("trace: corrupt dump: %w", rd.err)
	}
	return s, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type leWriter struct {
	w   io.Writer
	buf [8]byte
	err error
}

func (w *leWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

func (w *leWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.bytes(w.buf[:8])
}

func (w *leWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.bytes(w.buf[:4])
}

func (w *leWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.bytes(w.buf[:2])
}

func (w *leWriter) label(s string) {
	w.u16(uint16(len(s)))
	w.bytes([]byte(s))
}

func (w *leWriter) events(evs []Event) {
	w.u32(uint32(len(evs)))
	for _, e := range evs {
		w.u64(e.Seq)
		w.u64(uint64(e.Time))
		w.bytes([]byte{byte(e.Type)})
		w.u64(e.Arg1)
		w.u64(e.Arg2)
	}
}

type leReader struct {
	r   *bufio.Reader
	buf [8]byte
	err error
}

func (r *leReader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n]
	}
	_, r.err = io.ReadFull(r.r, r.buf[:n])
	return r.buf[:n]
}

func (r *leReader) u64() uint64 { return binary.LittleEndian.Uint64(r.read(8)) }
func (r *leReader) u32() uint32 { return binary.LittleEndian.Uint32(r.read(4)) }
func (r *leReader) u16() uint16 { return binary.LittleEndian.Uint16(r.read(2)) }

func (r *leReader) count(max int, what string) int {
	n := int(r.u32())
	if r.err == nil && n > max {
		r.err = fmt.Errorf("%s count %d exceeds cap %d", what, n, max)
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *leReader) label() string {
	n := int(r.u16())
	if r.err == nil && n > maxDumpLabelBytes {
		r.err = errors.New("label too long")
	}
	if r.err != nil {
		return ""
	}
	p := make([]byte, n)
	_, r.err = io.ReadFull(r.r, p)
	return string(p)
}

func (r *leReader) events() []Event {
	n := r.count(maxDumpEvents, "events")
	if n == 0 {
		return nil
	}
	evs := make([]Event, 0, min(n, 1<<16))
	for i := 0; i < n && r.err == nil; i++ {
		var e Event
		e.Seq = r.u64()
		e.Time = int64(r.u64())
		e.Type = EventType(r.read(1)[0])
		e.Arg1 = r.u64()
		e.Arg2 = r.u64()
		evs = append(evs, e)
	}
	return evs
}

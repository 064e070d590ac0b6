package serialize

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Wire frames.
//
// Every task batch, result batch and id list that crosses an executor
// boundary is one stateless frame:
//
//	CRC-32C (4 bytes, big-endian) | kind (1 byte) | count (uvarint) | body
//
// The body uses the value codec's primitives (value.go): a task is its id,
// app, priority, tenant, weight and the argument payload as raw bytes; a
// result batch lists every id first, so a broker can retire ids without
// decoding values, then each result's value (encodeValue), error and worker
// id; an id list is the ids as varints. A frame depends on no other frame,
// so a lost or corrupted one loses only itself and any peer can decode any
// frame in isolation — the LLEX relay fans frames across workers and the
// EXEX MPI interior hands them rank to rank with no session state.
//
// The checksum covers everything after itself and is verified before any
// byte is parsed. A corrupted frame is therefore a loud error, never a
// silently wrong argument or a mangled id that retires the wrong task.
// CRC-32C detects every error burst of up to 32 bits, so any single byte
// flip is caught.
const (
	frameTasks byte = iota + 1
	frameResults
	frameIDs
)

// frameHeaderLen is the checksum plus the kind byte.
const frameHeaderLen = 5

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// openFrame appends a frame header and the element count to dst. The
// checksum is filled in by sealFrame once the body is complete.
func openFrame(dst []byte, kind byte, n int) valueWriter {
	w := valueWriter{b: append(dst, 0, 0, 0, 0, kind)}
	w.uvarint(uint64(n))
	return w
}

// sealFrame writes the checksum of the frame that starts at b[start:].
func sealFrame(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], crc32.Checksum(b[start+4:], crcTable))
	return b
}

// AppendTasks appends one frame carrying ts to dst. The argument payloads
// are copied verbatim; nothing inside them is re-encoded.
func AppendTasks(dst []byte, ts []WireTask) []byte {
	start := len(dst)
	w := openFrame(dst, frameTasks, len(ts))
	for i := range ts {
		t := &ts[i]
		w.varint(t.ID)
		w.str(t.App)
		w.varint(int64(t.Priority))
		w.str(t.Tenant)
		w.varint(int64(t.Weight))
		w.uvarint(uint64(len(t.P)))
		w.b = append(w.b, t.P...)
	}
	return sealFrame(w.b, start)
}

// AppendResults appends one frame carrying rs to dst. A value that cannot be
// encoded (an unregistered type, a channel) does not fail the batch: that
// result travels with a nil value and an "encode result" error instead, so
// its task still settles.
func AppendResults(dst []byte, rs []ResultMsg) []byte {
	start := len(dst)
	w := openFrame(dst, frameResults, len(rs))
	for i := range rs {
		w.varint(rs[i].ID)
	}
	for i := range rs {
		r := &rs[i]
		errStr := r.Err
		mark := len(w.b)
		if err := w.encodeValue(r.Value); err != nil {
			w.b = w.b[:mark]
			w.byte1(vNil)
			errStr = fmt.Sprintf("serialize: encode result %d: %v", r.ID, err)
		}
		w.str(errStr)
		w.str(r.WorkerID)
	}
	return sealFrame(w.b, start)
}

// AppendIDs appends one frame carrying a list of wire ids to dst.
func AppendIDs(dst []byte, ids []int64) []byte {
	start := len(dst)
	w := openFrame(dst, frameIDs, len(ids))
	for _, id := range ids {
		w.varint(id)
	}
	return sealFrame(w.b, start)
}

// frameReader is a valueReader with a sticky error, so the parsers below
// read field after field and check once.
type frameReader struct {
	valueReader
	err error
}

// openBody verifies frame's checksum and kind and returns a reader over the
// body plus its element count.
func openBody(frame []byte, kind byte) (frameReader, int, error) {
	if len(frame) < frameHeaderLen {
		return frameReader{}, 0, fmt.Errorf("serialize: frame of %d bytes is shorter than its header", len(frame))
	}
	if want, got := binary.BigEndian.Uint32(frame), crc32.Checksum(frame[4:], crcTable); want != got {
		return frameReader{}, 0, fmt.Errorf("serialize: frame checksum mismatch: %08x != %08x", got, want)
	}
	if frame[4] != kind {
		return frameReader{}, 0, fmt.Errorf("serialize: frame kind %d, want %d", frame[4], kind)
	}
	r := frameReader{valueReader: valueReader{b: frame[frameHeaderLen:]}}
	n, err := r.count()
	if err != nil {
		return r, 0, fmt.Errorf("serialize: frame count: %w", err)
	}
	return r, n, nil
}

func (r *frameReader) int() int64 {
	if r.err != nil {
		return 0
	}
	var i int64
	i, r.err = r.varint()
	return i
}

func (r *frameReader) string() string {
	if r.err != nil {
		return ""
	}
	var s string
	s, r.err = r.str()
	return s
}

// blob returns a length-prefixed byte string aliasing the frame.
func (r *frameReader) blob() []byte {
	if r.err != nil {
		return nil
	}
	var b []byte
	b, r.err = r.bytes()
	return b
}

func (r *frameReader) value() any {
	if r.err != nil {
		return nil
	}
	var v any
	v, r.err = r.decodeValue()
	return v
}

// done reports the first parse error, or trailing bytes after the body.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("serialize: frame carried %d trailing bytes", len(r.b))
	}
	return r.err
}

// ParseTasks decodes a task frame. Each task's P aliases frame, so the
// argument bytes are never copied on the way to the worker that decodes them.
func ParseTasks(frame []byte) ([]WireTask, error) {
	r, n, err := openBody(frame, frameTasks)
	if err != nil {
		return nil, err
	}
	ts := make([]WireTask, n)
	for i := range ts {
		t := &ts[i]
		t.ID = r.int()
		t.App = r.string()
		t.Priority = int(r.int())
		t.Tenant = r.string()
		t.Weight = int(r.int())
		t.P = r.blob()
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("serialize: parse tasks: %w", err)
	}
	return ts, nil
}

// ParseResults decodes a result frame.
func ParseResults(frame []byte) ([]ResultMsg, error) {
	r, n, err := openBody(frame, frameResults)
	if err != nil {
		return nil, err
	}
	rs := make([]ResultMsg, n)
	for i := range rs {
		rs[i].ID = r.int()
	}
	for i := range rs {
		rs[i].Value = r.value()
		rs[i].Err = r.string()
		rs[i].WorkerID = r.string()
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("serialize: parse results: %w", err)
	}
	return rs, nil
}

// ParseResultIDs verifies a result frame and returns only the ids it
// carries, leaving the values undecoded — what a broker needs to retire
// outstanding tasks before forwarding the frame as received.
func ParseResultIDs(frame []byte) ([]int64, error) { return parseIDs(frame, frameResults) }

// ParseIDs decodes an id-list frame.
func ParseIDs(frame []byte) ([]int64, error) { return parseIDs(frame, frameIDs) }

// parseIDs reads the leading id list of a frame of the given kind. Only an
// id-list frame must end there; a result frame's values follow.
func parseIDs(frame []byte, kind byte) ([]int64, error) {
	r, n, err := openBody(frame, kind)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = r.int()
	}
	if kind == frameIDs {
		_ = r.done() // records trailing bytes in r.err
	}
	if r.err != nil {
		return nil, fmt.Errorf("serialize: parse ids: %w", r.err)
	}
	return ids, nil
}

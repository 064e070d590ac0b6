package serialize

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
)

// The compact value codec behind encode-once payloads and wire frames.
//
// gob is self-describing: every independent stream re-transmits type
// descriptors, and every fresh decoder re-parses and re-compiles them —
// a fixed ~10µs+ tax per message that dwarfs the actual argument bytes for
// the small-argument tasks the paper's throughput experiments submit
// (§4.3.1 targets >1000 tasks/s). A payload is decoded exactly once, by the
// worker about to run the task, and a wire frame (frame.go) is decoded by
// whichever peer receives it, with no session to amortize the tax over.
//
// So payloads and result values encode the common shapes — nil, bool,
// integers, floats, strings, byte/str/int/float slices, []any, string-keyed
// maps — with a one-byte tag plus a fixed little encoding each, and fall back to a
// length-prefixed self-contained gob stream only for registered user types.
// The format is fully deterministic for the fast-path shapes (maps encode
// sorted), which is what lets the memoization hash be a plain digest of the
// payload bytes; gob-fallback values are deterministic for types whose
// descriptor ids are pinned (see primeGob/RegisterType).

// Value tags. Appending new tags is fine; reordering or removing them
// changes every payload hash and so invalidates existing checkpoints.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt      // zigzag varint, decodes to int
	vInt64    // zigzag varint, decodes to int64
	vFloat64  // 8-byte big-endian IEEE 754
	vString   // varint length + bytes
	vBytes    // varint length + raw bytes ([]byte)
	vStrings  // varint count + strings ([]string)
	vInts     // varint count + zigzag varints ([]int)
	vFloat64s // varint count + 8-byte values ([]float64)
	vList     // varint count + values ([]any)
	vMapSA    // varint count + sorted (string, value) pairs (map[string]any)
	vMapSS    // varint count + sorted (string, string) pairs (map[string]string)
	vGob      // varint length + self-contained gob stream of *any
)

// valueWriter appends the codec's primitives to a byte slice owned by the
// caller (a pooled payload or frame buffer).
type valueWriter struct {
	b []byte
}

func (w *valueWriter) byte1(c byte)     { w.b = append(w.b, c) }
func (w *valueWriter) uvarint(u uint64) { w.b = binary.AppendUvarint(w.b, u) }
func (w *valueWriter) varint(i int64)   { w.b = binary.AppendVarint(w.b, i) }
func (w *valueWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// encodeValue appends one tagged value.
func (w *valueWriter) encodeValue(v any) error {
	switch t := v.(type) {
	case nil:
		w.byte1(vNil)
	case bool:
		if t {
			w.byte1(vTrue)
		} else {
			w.byte1(vFalse)
		}
	case int:
		w.byte1(vInt)
		w.varint(int64(t))
	case int64:
		w.byte1(vInt64)
		w.varint(t)
	case float64:
		w.byte1(vFloat64)
		w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(t))
	case string:
		w.byte1(vString)
		w.str(t)
	case []byte:
		w.byte1(vBytes)
		w.uvarint(uint64(len(t)))
		w.b = append(w.b, t...)
	case []string:
		w.byte1(vStrings)
		w.uvarint(uint64(len(t)))
		for _, s := range t {
			w.str(s)
		}
	case []int:
		w.byte1(vInts)
		w.uvarint(uint64(len(t)))
		for _, i := range t {
			w.varint(int64(i))
		}
	case []float64:
		w.byte1(vFloat64s)
		w.uvarint(uint64(len(t)))
		for _, f := range t {
			w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(f))
		}
	case []any:
		w.byte1(vList)
		w.uvarint(uint64(len(t)))
		for _, e := range t {
			if err := w.encodeValue(e); err != nil {
				return err
			}
		}
	case map[string]any:
		w.byte1(vMapSA)
		w.uvarint(uint64(len(t)))
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.str(k)
			if err := w.encodeValue(t[k]); err != nil {
				return err
			}
		}
	case map[string]string:
		w.byte1(vMapSS)
		w.uvarint(uint64(len(t)))
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.str(k)
			w.str(t[k])
		}
	default:
		// Registered user type: a self-contained gob stream, the same
		// contract (and the same RegisterType requirement) the pure-gob
		// wire format had.
		w.byte1(vGob)
		buf := getBuf()
		err := gob.NewEncoder(buf).Encode(&v)
		if err != nil {
			putBuf(buf)
			return fmt.Errorf("serialize: encode %T: %w", v, err)
		}
		w.uvarint(uint64(buf.Len()))
		w.b = append(w.b, buf.Bytes()...)
		putBuf(buf)
	}
	return nil
}

// valueReader consumes the codec's primitives from a byte slice.
type valueReader struct {
	b []byte
}

var errShortPayload = fmt.Errorf("serialize: truncated payload")

func (r *valueReader) byte1() (byte, error) {
	if len(r.b) == 0 {
		return 0, errShortPayload
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *valueReader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortPayload
	}
	r.b = r.b[n:]
	return u, nil
}

func (r *valueReader) varint() (int64, error) {
	i, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, errShortPayload
	}
	r.b = r.b[n:]
	return i, nil
}

func (r *valueReader) take(n uint64) ([]byte, error) {
	if uint64(len(r.b)) < n {
		return nil, errShortPayload
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

// bytes reads a varint length and that many bytes, aliasing the input.
func (r *valueReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

func (r *valueReader) str() (string, error) {
	raw, err := r.bytes()
	return string(raw), err
}

func (r *valueReader) u64() (uint64, error) {
	raw, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(raw), nil
}

// count reads a collection length, bounding it by the bytes that remain so
// corrupt input cannot provoke giant allocations.
func (r *valueReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)) {
		return 0, errShortPayload
	}
	return int(n), nil
}

// decodeValue reads one tagged value. Every decode builds fresh containers,
// so the result is always a deep copy of what was encoded.
func (r *valueReader) decodeValue() (any, error) {
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vFalse:
		return false, nil
	case vTrue:
		return true, nil
	case vInt:
		i, err := r.varint()
		return int(i), err
	case vInt64:
		return r.varint()
	case vFloat64:
		u, err := r.u64()
		return math.Float64frombits(u), err
	case vString:
		return r.str()
	case vBytes:
		raw, err := r.bytes()
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(raw))
		copy(out, raw)
		return out, nil
	case vStrings:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			if out[i], err = r.str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case vInts:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case vFloat64s:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			u, err := r.u64()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(u)
		}
		return out, nil
	case vList:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = r.decodeValue(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case vMapSA:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.decodeValue(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case vMapSS:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case vGob:
		raw, err := r.bytes()
		if err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(&frameFeed{b: raw}).Decode(&v); err != nil {
			return nil, fmt.Errorf("serialize: decode gob value: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("serialize: unknown value tag 0x%02x", tag)
	}
}

// frameFeed is an io.Reader over exactly one embedded gob stream.
// Implementing io.ByteReader keeps gob from wrapping it in a bufio.Reader,
// so the decoder consumes precisely the embedded bytes.
type frameFeed struct{ b []byte }

func (f *frameFeed) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

func (f *frameFeed) ReadByte() (byte, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c, nil
}

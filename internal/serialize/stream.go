package serialize

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// Frame tags. Every framed message starts with a 9-byte header: one tag
// byte, a big-endian uint32 stream epoch, and a CRC-32C of the body. The
// epoch identifies the sender's encoder incarnation, letting a receiver
// detect a new stream (sender reset or reconnect) and start a fresh decoder
// at exactly the right frame — the first frame of a fresh gob stream is
// self-describing.
//
// The checksum exists because gob has no integrity protection of its own: a
// frame corrupted in transit can decode *successfully* into wrong data — a
// silently wrong task argument, or a result whose mangled id debits the
// wrong broker bookkeeping entry (both were observed the moment the chaos
// plane started flipping bytes). Verifying CRC-32C before any decode turns
// every corruption into a loud, attributable frame error that the NACK
// resync protocol (internal/executor/htex) can repair.
const (
	frameStream  byte = 0x01 // next message of the sender's persistent gob stream
	frameOneShot byte = 0x02 // standalone self-describing gob stream
)

const frameHeaderLen = 9

// crcTable is CRC-32C (Castagnoli) — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum digests a frame's tag, epoch, and body (everything except
// the checksum field itself), so corruption anywhere in the frame — body
// bytes, the epoch, even the tag — is detected rather than misinterpreted.
func frameChecksum(frame []byte) uint32 {
	crc := crc32.Update(0, crcTable, frame[:5])
	return crc32.Update(crc, crcTable, frame[frameHeaderLen:])
}

// epochSeq hands out globally unique stream epochs so no sender incarnation
// can ever be mistaken for its predecessor.
var epochSeq atomic.Uint32

// FrameEncoder is the shared shape of StreamEncoder and OneShotCodec: encode
// v as one frame and pass it to send. Implementations may only guarantee the
// frame bytes during the send call.
type FrameEncoder interface {
	EncodeFrame(v any, send func(frame []byte) error) error
}

// StreamEncoder is a persistent, per-connection gob encoder whose output is
// sliced into tagged frames. Because the underlying gob stream transmits a
// type's descriptor only the first time the type appears, steady-state
// frames carry values alone — the amortization that one-shot framing pays
// for on every message.
//
// EncodeFrame holds the encoder lock across both the encode and the send:
// the peer's StreamDecoder consumes the stream strictly in order, so frames
// must reach the transport in encode order even when multiple goroutines
// submit concurrently.
type StreamEncoder struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	enc   *gob.Encoder
	epoch uint32
}

// NewStreamEncoder starts a fresh stream with a unique epoch.
func NewStreamEncoder() *StreamEncoder {
	e := &StreamEncoder{}
	e.resetLocked()
	return e
}

// resetLocked abandons the current stream and starts a new one. Callers must
// hold e.mu (or own e exclusively, as in NewStreamEncoder).
func (e *StreamEncoder) resetLocked() {
	e.epoch = epochSeq.Add(1)
	e.buf.Reset()
	e.enc = gob.NewEncoder(&e.buf)
}

// Epoch exposes the current stream incarnation (tests, diagnostics).
func (e *StreamEncoder) Epoch() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Reset abandons the current stream; the next frame opens a new epoch and is
// self-describing from its first byte. Call after a transport-level
// reconnect so the peer's decoder resyncs.
func (e *StreamEncoder) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resetLocked()
}

// frameLocked encodes v as the next frame of the current stream. The
// returned slice aliases the internal buffer and is valid until the next
// encode or reset.
func (e *StreamEncoder) frameLocked(v any) ([]byte, error) {
	e.buf.Reset()
	var hdr [frameHeaderLen]byte
	hdr[0] = frameStream
	binary.BigEndian.PutUint32(hdr[1:5], e.epoch)
	e.buf.Write(hdr[:])
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	frame := e.buf.Bytes()
	binary.BigEndian.PutUint32(frame[5:frameHeaderLen], frameChecksum(frame))
	return frame, nil
}

// EncodeFrame encodes v on the persistent stream and hands the finished
// frame to send under the encoder lock. An encode error poisons the stream
// (gob's sent-type bookkeeping can run ahead of the bytes actually shipped),
// so the encoder resets to a fresh epoch and retries once — the fallback to
// a self-describing start that reconnects rely on; if v itself is
// unencodable the error is returned and the stream stays fresh. A send
// error also resets: the frame never reached the peer, so descriptors it
// introduced must be re-sent for the next frame to be decodable.
func (e *StreamEncoder) EncodeFrame(v any, send func(frame []byte) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	frame, err := e.frameLocked(v)
	if err != nil {
		e.resetLocked()
		if frame, err = e.frameLocked(v); err != nil {
			e.resetLocked()
			return fmt.Errorf("serialize: stream encode: %w", err)
		}
	}
	if err := send(frame); err != nil {
		e.resetLocked()
		return err
	}
	return nil
}

// OneShotCodec frames every message as its own self-describing gob stream —
// the pre-streaming wire format, retained as the no-session fallback (relay
// fan-out, reconnect hand-off) and as the benchmark baseline that the
// streaming path is measured against.
type OneShotCodec struct{}

// EncodeFrame implements FrameEncoder with a fresh gob stream per message.
func (OneShotCodec) EncodeFrame(v any, send func(frame []byte) error) error {
	buf := getBuf()
	defer putBuf(buf)
	var hdr [frameHeaderLen]byte
	hdr[0] = frameOneShot
	buf.Write(hdr[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("serialize: one-shot encode: %w", err)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame[5:frameHeaderLen], frameChecksum(frame))
	return send(frame)
}

// DecodeFrame decodes one standalone frame into v — the receiving half of
// EncodeFrame, for receivers that keep no stream state.
func (OneShotCodec) DecodeFrame(frame []byte, v any) error {
	var d StreamDecoder
	return d.DecodeFrame(frame, v)
}

// frameFeed is the io.Reader a StreamDecoder's persistent gob.Decoder pulls
// from: exactly the current frame's body, then EOF. Implementing
// io.ByteReader keeps gob from wrapping the feed in a bufio.Reader, so the
// decoder consumes precisely one frame per Decode and never buffers across
// frames.
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

// StreamDecoder is the receiving half of a per-connection stream: it feeds
// tagged frames, in arrival order, into a persistent gob decoder. A frame
// bearing a new epoch transparently starts a fresh decoder (sender reset or
// reconnect), and one-shot frames decode standalone at any point — mixed
// traffic is fine. Not safe for concurrent use; receivers own one decoder
// per peer on their single receive goroutine.
type StreamDecoder struct {
	feed  frameFeed
	dec   *gob.Decoder
	epoch uint32
	live  bool
}

// NewStreamDecoder returns a decoder with no stream state; the first frame
// establishes the epoch.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// PeekFrameEpoch reads a frame's stream epoch without decoding it. ok is
// false for one-shot and malformed frames, which carry no stream identity.
// Epochs are globally unique per encoder incarnation, so observing a new
// epoch on a connection is an in-band signal that the peer started a new
// session — receivers can key their own reply-stream resets off it instead
// of trusting out-of-band connection events.
func PeekFrameEpoch(frame []byte) (epoch uint32, ok bool) {
	if len(frame) < frameHeaderLen || frame[0] != frameStream {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[1:5]), true
}

// DecodeFrame decodes one received frame into v. The body checksum is
// verified before any gob state is touched: a corrupted frame fails loudly
// here and can never decode into silently wrong data.
func (d *StreamDecoder) DecodeFrame(frame []byte, v any) error {
	if len(frame) < frameHeaderLen {
		return fmt.Errorf("serialize: frame of %d bytes is shorter than the header", len(frame))
	}
	tag := frame[0]
	epoch := binary.BigEndian.Uint32(frame[1:5])
	body := frame[frameHeaderLen:]
	if want, got := binary.BigEndian.Uint32(frame[5:frameHeaderLen]), frameChecksum(frame); want != got {
		if tag == frameStream {
			// The sender's gob stream advanced past this frame (it may have
			// carried type descriptors), so the rest of the epoch cannot be
			// trusted; drop the stream and let the NACK/resync path repair it.
			d.live = false
		}
		return fmt.Errorf("serialize: frame checksum mismatch (epoch %d): %08x != %08x", epoch, got, want)
	}
	switch tag {
	case frameOneShot:
		return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	case frameStream:
		if !d.live || epoch != d.epoch {
			d.feed.b = nil
			d.dec = gob.NewDecoder(&d.feed)
			d.epoch = epoch
			d.live = true
		}
		d.feed.b = body
		if err := d.dec.Decode(v); err != nil {
			// The stream is unrecoverable mid-epoch; drop it so a future
			// epoch (sender reset) resyncs cleanly.
			d.live = false
			return fmt.Errorf("serialize: stream decode (epoch %d): %w", epoch, err)
		}
		if len(d.feed.b) != 0 {
			d.live = false
			return fmt.Errorf("serialize: stream frame (epoch %d) carried %d trailing bytes", epoch, len(d.feed.b))
		}
		return nil
	default:
		return fmt.Errorf("serialize: unknown frame tag 0x%02x", tag)
	}
}

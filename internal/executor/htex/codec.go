// Package htex implements Parsl's High Throughput Executor (§4.3.1): an
// executor client, an interchange brokering between the client and
// registered managers over the mq fabric, and the manager — the per-node
// pilot agent a provider deploys — whose workers execute tasks. It supports
// task batching with prefetch, randomized manager selection for fairness,
// heartbeat-based fault detection, lost-manager exceptions, a synchronous
// command channel, and block-based scaling. The agent is the only
// implementation of the manager protocol: StartManager runs tasks
// in-process, and EXEX pools start the same agent with a Runner that
// forwards each task to an MPI rank (StartAgent).
//
// Wire path: task and result batches ride one persistent stream link per leg
// (see link) that amortizes gob type-descriptor transmission across a
// session, and tasks travel as serialize.WireTask envelopes whose argument
// payload was encoded exactly once at submit time — the interchange queues,
// prioritizes, cancels, and re-frames tasks without ever decoding the
// argument bytes. Control frames (registration, ids, heartbeats, commands)
// stay one-shot: they are small, rare, and must be decodable without
// session state.
package htex

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/mq"
	"repro/internal/serialize"
)

// Wire message type tags (first frame part).
const (
	frameTaskSub = "TASKB"   // client -> interchange: streamed batch of WireTask
	frameTasks   = "TASKS"   // interchange -> manager: streamed batch of WireTask
	frameResults = "RESULTS" // manager -> interchange -> client: streamed batch of ResultMsg
	frameReg     = "REG"     // manager -> interchange: registration
	frameHB      = "HB"      // both directions
	frameCmd     = "CMD"     // client -> interchange: command channel
	frameCmdRep  = "CMDREP"  // interchange -> client: command reply
	frameLost    = "LOST"    // interchange -> client: tasks lost with a manager
	frameBye     = "BYE"     // manager -> interchange: clean departure
	frameCancel  = "CANCEL"  // client -> interchange -> manager: drop tasks not yet started
	frameNack    = "NACK"    // receiver -> sender: your stream (epoch attached) is undecodable; resync
)

// Stream links and corruption recovery (NACK protocol)
//
// Every stream leg of the HTEX triangle is one link: the client holds one per
// interchange shard, the interchange one per peer identity (the client and
// each registered manager), and the manager agent one toward its interchange
// — an EXEX pool's rank 0 included, since it is an ordinary agent. A link
// pairs the encoder for the frames this side sends with the decoder for the
// frames the peer sends, so gob type descriptors cross each leg once per
// session and the resync contract below is implemented once.
//
// A persistent gob stream is stateful: one corrupted, truncated, or dropped
// frame can make every later frame of the same epoch undecodable, because
// type descriptors transmitted earlier in the stream are referenced, not
// repeated. Silently ignoring an undecodable frame therefore risks wedging a
// whole session. Instead, link.recv NACKs the sender with the epoch of the
// frame it could not decode, and the sender's link.nacked resets its encoder
// so the next frame opens a fresh, self-describing epoch. The repair beyond
// that reset differs per leg and stays with the caller:
//
//   - client -> interchange (TASKB): the client retransmits every task in
//     flight on that shard. Tasks that were actually delivered execute twice
//     at most; the client's pending map delivers each result exactly once.
//   - interchange -> client (RESULTS relay): nothing more. Results inside the
//     lost frame are gone — no layer retains delivered results — so the
//     affected tasks recover through the DFK's attempt timeout and retry.
//     That backstop is deliberate: retaining results for replay would cost a
//     replay buffer on the broker's hot path.
//   - interchange -> manager (TASKS): the interchange requeues the manager's
//     entire outstanding set (it cannot know which tasks the lost frame
//     carried). Tasks the manager did receive run twice at most; duplicates
//     reconcile at the client.
//   - manager -> interchange (RESULTS): the interchange requeues that
//     manager's outstanding set when it sends the NACK, so results lost in
//     the bad frame re-execute rather than leaking broker capacity.
//
// Stale NACKs are deduplicated by epoch: a link acts only when the NACKed
// epoch matches its encoder's current epoch, so a burst of failures against
// one epoch triggers exactly one reset/repair cycle.
type link struct {
	enc *serialize.StreamEncoder
	dec serialize.StreamDecoder // receive goroutine only
	// point and label address this leg's outbound frames in the chaos plane.
	point chaos.Point
	label string
	// Outbound messages go to dealer or, on the interchange, through router
	// to peer. Concrete fields rather than a send func let the compiler keep
	// each frame's message header off the heap.
	dealer *mq.Dealer
	router *mq.Router
	peer   string
}

// dealerLink is a link over a dealer connection (client, manager agent).
func dealerLink(point chaos.Point, label string, d *mq.Dealer) *link {
	return &link{enc: serialize.NewStreamEncoder(), point: point, label: label, dealer: d}
}

// routerLink is the interchange's link to one peer identity.
func routerLink(point chaos.Point, label string, r *mq.Router, peer string) *link {
	return &link{enc: serialize.NewStreamEncoder(), point: point, label: label, router: r, peer: peer}
}

func (l *link) out(m mq.Message) error {
	if l.dealer != nil {
		return l.dealer.Send(m)
	}
	return l.router.SendTo(l.peer, m)
}

// send frames v as the next message of this side's stream and sends it under
// tag through the leg's chaos point. Frames reach the transport in encode
// order even with concurrent senders.
func (l *link) send(tag string, v any) error {
	return l.enc.EncodeFrame(v, func(frame []byte) error {
		return chaos.Frame(l.point, l.label, frame, func(fr []byte) error {
			return l.out(mq.Message{[]byte(tag), fr})
		})
	})
}

// recv decodes one frame of the peer's stream into v. An undecodable frame is
// answered with a NACK naming its epoch and recv reports false; the caller
// drops the frame (and, on the manager-results leg, runs its repair).
func (l *link) recv(frame []byte, v any) bool {
	if err := l.dec.DecodeFrame(frame, v); err != nil {
		// Epoch 0 is never issued by an encoder, so a NACK for a frame whose
		// header was itself mangled matches nothing and is ignored; the next
		// failing frame of the stream carries a readable epoch and repairs it.
		// A corrupted NACK payload is self-limiting the same way.
		epoch, _ := serialize.PeekFrameEpoch(frame)
		_ = l.out(mq.Message{[]byte(frameNack), binary.BigEndian.AppendUint32(nil, epoch)})
		return false
	}
	return true
}

// nacked handles the peer's NACK of this side's stream: when it names the
// encoder's current epoch, the encoder resets and nacked reports true so the
// caller runs its leg's repair. Stale and unmatchable NACKs report false.
func (l *link) nacked(payload []byte) bool {
	if len(payload) != 4 {
		return false
	}
	epoch := binary.BigEndian.Uint32(payload)
	if epoch == 0 || l.enc.Epoch() != epoch {
		return false
	}
	l.enc.Reset()
	return true
}

// encodeIDs / decodeIDs carry wire-id lists (CANCEL, LOST) as checksummed
// one-shot frames: they are tiny and infrequent, so stream state would buy
// nothing, but they name tasks by id — a bit-flipped id that decoded
// "successfully" would cancel or fail the wrong task, so they get the same
// CRC-verified framing as task and result payloads.
func encodeIDs(ids []int64) ([]byte, error) {
	var out []byte
	err := serialize.OneShotCodec{}.EncodeFrame(ids, func(frame []byte) error {
		out = bytes.Clone(frame) // the frame is pooled, valid only during send
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("htex: encode ids: %w", err)
	}
	return out, nil
}

func decodeIDs(b []byte) ([]int64, error) {
	var ids []int64
	if err := (serialize.OneShotCodec{}).DecodeFrame(b, &ids); err != nil {
		return nil, fmt.Errorf("htex: decode ids: %w", err)
	}
	return ids, nil
}

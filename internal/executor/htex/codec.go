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
// Wire path: task batches, result batches and id lists each travel as one
// stateless, checksummed frame (serialize.AppendTasks and its siblings), and
// tasks carry the argument payload encoded exactly once at submit time. The
// interchange queues, prioritizes, cancels and re-frames tasks without
// decoding the argument bytes, and forwards a manager's RESULTS frame to the
// client as received. No frame depends on another, so a corrupted frame
// loses only itself (see link for the repair on each leg).
package htex

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/mq"
	"repro/internal/serialize"
)

// Wire message type tags (first frame part).
const (
	frameTaskSub = "TASKB"   // client -> interchange: batch of WireTask
	frameTasks   = "TASKS"   // interchange -> manager: batch of WireTask
	frameResults = "RESULTS" // manager -> interchange -> client: batch of ResultMsg
	frameReg     = "REG"     // manager -> interchange: registration
	frameHB      = "HB"      // both directions
	frameCmd     = "CMD"     // client -> interchange: command channel
	frameCmdRep  = "CMDREP"  // interchange -> client: command reply
	frameLost    = "LOST"    // interchange -> client: tasks lost with a manager
	frameBye     = "BYE"     // manager -> interchange: clean departure
	frameCancel  = "CANCEL"  // client -> interchange -> manager: drop tasks not yet started
	frameNack    = "NACK"    // receiver -> sender: one of your task frames was undecodable
)

// Links and corruption recovery (NACK protocol)
//
// Every frame-carrying leg of the HTEX triangle is one link: the client
// holds one per interchange shard, the interchange addresses one per peer
// identity (the client and each registered manager), and the manager agent
// holds one toward its interchange — an EXEX pool's rank 0 included, since
// it is an ordinary agent. A link is only an address plus the leg's chaos
// point: frames carry no session state, so a link has none either.
//
// A frame that fails its checksum or parse is dropped, and only that frame
// is lost. Whether the loss needs a repair depends on who can make one:
//
//   - client -> interchange (TASKB): the interchange NACKs the client, which
//     retransmits every task in flight on that shard. Tasks that were
//     delivered execute twice at most; the client's pending map delivers
//     each result exactly once.
//   - interchange -> manager (TASKS): the manager NACKs the interchange,
//     which requeues the manager's entire outstanding set (it cannot know
//     which tasks the lost frame carried). Tasks the manager did receive run
//     twice at most; duplicates reconcile at the client.
//   - manager -> interchange (RESULTS): no NACK. The interchange requeues
//     that manager's outstanding set itself, so results lost in the bad
//     frame re-execute rather than leaking broker capacity.
//   - interchange -> client (RESULTS relay): no NACK. No layer retains
//     delivered results, so the affected tasks recover through the DFK's
//     attempt timeout and retry; a replay buffer would cost the broker's hot
//     path more than the rare loss does.
//
// Each undecodable frame triggers exactly one repair.
type link struct {
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

func (l link) out(m mq.Message) error {
	if l.dealer != nil {
		return l.dealer.Send(m)
	}
	return l.router.SendTo(l.peer, m)
}

// send sends one finished frame under tag through the leg's chaos point.
func (l link) send(tag string, frame []byte) error {
	return chaos.Frame(l.point, l.label, frame, func(fr []byte) error {
		return l.out(mq.Message{[]byte(tag), fr})
	})
}

// framePool recycles frame buffers: the transport copies a message on Send,
// so a frame is garbage as soon as send returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// sendTasks frames a task batch and sends it under tag.
func (l link) sendTasks(tag string, ts []serialize.WireTask) error {
	buf := framePool.Get().(*[]byte)
	*buf = serialize.AppendTasks((*buf)[:0], ts)
	err := l.send(tag, *buf)
	framePool.Put(buf)
	return err
}

// sendResults frames a result batch and sends it as RESULTS.
func (l link) sendResults(rs []serialize.ResultMsg) error {
	buf := framePool.Get().(*[]byte)
	*buf = serialize.AppendResults((*buf)[:0], rs)
	err := l.send(frameResults, *buf)
	framePool.Put(buf)
	return err
}

// nack tells the peer that one of its task frames was undecodable.
func (l link) nack() { _ = l.out(mq.Message{[]byte(frameNack)}) }

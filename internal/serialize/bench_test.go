package serialize

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

// benchBatch builds one batch of representative tasks: a few positional
// args of mixed type plus kwargs, the shape the paper's workloads submit.
func benchBatch(n int) ([]TaskMsg, [][]any, []map[string]any) {
	msgs := make([]TaskMsg, n)
	argLists := make([][]any, n)
	kwLists := make([]map[string]any, n)
	for i := range msgs {
		argLists[i] = []any{i, fmt.Sprintf("input-%04d", i), 2.5, []string{"a", "b", "c"}}
		kwLists[i] = map[string]any{"threads": 4, "mode": "fast"}
		msgs[i] = TaskMsg{ID: int64(i), App: "bench-app", Priority: 1,
			Args: argLists[i], Kwargs: kwLists[i]}
	}
	return msgs, argLists, kwLists
}

// gobOneShot is the pre-frame wire encoding, kept here as the benchmark
// baseline: every message a self-describing gob stream of its own.
func gobOneShot(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func gobDecode(b []byte, v any) {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		panic(err)
	}
}

// BenchmarkSerializeRoundTrip measures the full serialization path of one
// 64-task batch from submission to executable arguments on a worker,
// including the memoization hash — everything the serialization layer does
// for a task, end to end.
//
//	oneshot-baseline   the pre-encode-once pipeline, retained for
//	                   comparison: per-argument hash encoders, a
//	                   validation encode per task, then a self-describing
//	                   one-shot gob encode/decode at each hop
//	                   (client → interchange → manager)
//	encode-once-streaming   the encode-once pipeline: arguments encoded
//	                   exactly once, hash taken over the cached bytes,
//	                   envelopes re-framed hop to hop in stateless wire
//	                   frames, arguments decoded once at the worker
//
// The acceptance bar for this layer is encode-once ≥ 2× faster ns/op than
// the baseline in the same run.
func BenchmarkSerializeRoundTrip(b *testing.B) {
	const batchSize = 64

	b.Run("oneshot-baseline", func(b *testing.B) {
		msgs, argLists, kwLists := benchBatch(batchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Submit side: memo hash (per-argument encoders) and the
			// validation encode the old client performed per task, on a
			// copy of the message.
			for j := range msgs {
				if _, err := ArgsHash(argLists[j], kwLists[j]); err != nil {
					b.Fatal(err)
				}
				m := msgs[j]
				w, err := m.Wire()
				if err != nil {
					b.Fatal(err)
				}
				_ = gobOneShot(w)
			}
			wires := make([]WireTask, len(msgs))
			for j := range msgs {
				w, err := msgs[j].Wire()
				if err != nil {
					b.Fatal(err)
				}
				wires[j] = w
				msgs[j].payload = nil // the old path cached nothing
			}
			// Wire: client → interchange → manager, one self-describing
			// frame per hop, full re-encode in between.
			var atIx, atMgr []WireTask
			gobDecode(gobOneShot(wires), &atIx)
			gobDecode(gobOneShot(atIx), &atMgr)
			for j := range atMgr {
				if _, err := atMgr[j].Task(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("encode-once-streaming", func(b *testing.B) {
		var hop1, hop2 []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msgs, argLists, kwLists := benchBatch(batchSize)
			// Submit side: encode once, hash the bytes.
			wires := make([]WireTask, len(msgs))
			for j := range msgs {
				p, err := EncodeArgs(argLists[j], kwLists[j])
				if err != nil {
					b.Fatal(err)
				}
				_ = p.ArgsHash()
				msgs[j].AttachPayload(p)
				w, err := msgs[j].Wire()
				if err != nil {
					b.Fatal(err)
				}
				wires[j] = w
			}
			// Wire: same two hops, but the envelopes ride wire frames and
			// the argument bytes pass through untouched.
			hop1 = AppendTasks(hop1[:0], wires)
			atIx, err := ParseTasks(hop1)
			if err != nil {
				b.Fatal(err)
			}
			hop2 = AppendTasks(hop2[:0], atIx)
			atMgr, err := ParseTasks(hop2)
			if err != nil {
				b.Fatal(err)
			}
			for j := range atMgr {
				if _, err := atMgr[j].Task(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkArgsHash isolates the memoization hash: per-argument gob
// streamed straight into a pooled FNV hasher.
func BenchmarkArgsHash(b *testing.B) {
	args := []any{7, "input-0007", 2.5, []string{"a", "b", "c"}}
	kw := map[string]any{"threads": 4, "mode": "fast"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ArgsHash(args, kw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadHash is the encode-once equivalent: EncodeArgs plus a
// hash sweep over the cached bytes (what the DFK submit path actually pays,
// since the same payload then serves the wire and the deep copy for free).
func BenchmarkPayloadHash(b *testing.B) {
	args := []any{7, "input-0007", 2.5, []string{"a", "b", "c"}}
	kw := map[string]any{"threads": 4, "mode": "fast"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := EncodeArgs(args, kw)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.ArgsHash()
	}
}

// BenchmarkDeepCopy compares the two defensive-copy paths an in-process
// executor can take: the legacy encode+decode round trip versus a single
// decode of the encode-once payload.
func BenchmarkDeepCopy(b *testing.B) {
	args := []any{7, "input-0007", 2.5, []string{"a", "b", "c"}}
	kw := map[string]any{"threads": 4, "mode": "fast"}
	b.Run("encode-and-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DeepCopyArgs(args, kw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-from-payload", func(b *testing.B) {
		p, err := EncodeArgs(args, kw)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.DecodeArgs(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireFrame isolates the frame codec: one 16-element batch of each
// frame kind, encoded into a reused buffer and parsed back.
func BenchmarkWireFrame(b *testing.B) {
	tasks := make([]WireTask, 16)
	results := make([]ResultMsg, 16)
	ids := make([]int64, 16)
	for i := range tasks {
		p, err := EncodeArgs([]any{i, "input"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		tasks[i] = WireTask{ID: int64(i), App: "bench-app", P: p.Bytes()}
		results[i] = ResultMsg{ID: int64(i), Value: i * 3, WorkerID: "w0"}
		ids[i] = int64(i)
	}
	var buf []byte
	b.Run("tasks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendTasks(buf[:0], tasks)
			if _, err := ParseTasks(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("results", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendResults(buf[:0], results)
			if _, err := ParseResults(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ids", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendIDs(buf[:0], ids)
			if _, err := ParseIDs(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

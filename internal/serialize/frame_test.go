package serialize

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mkTaskBatch(r *rand.Rand, n int) []WireTask {
	batch := make([]WireTask, n)
	for i := range batch {
		args := []any{r.Int(), fmt.Sprintf("arg-%d", r.Intn(1000)), r.Float64()}
		kw := map[string]any{"k": r.Intn(10), "mode": "m"}
		p, err := EncodeArgs(args, kw)
		if err != nil {
			panic(err)
		}
		m := TaskMsg{ID: r.Int63(), App: "app", Priority: r.Intn(5), Tenant: "t", Weight: 1 + r.Intn(3)}
		m.AttachPayload(p)
		w, err := m.Wire()
		if err != nil {
			panic(err)
		}
		batch[i] = w
	}
	return batch
}

func mkResultBatch(r *rand.Rand, n int) []ResultMsg {
	batch := make([]ResultMsg, n)
	for i := range batch {
		batch[i] = ResultMsg{
			ID: r.Int63(), Value: r.Intn(1 << 20),
			WorkerID: fmt.Sprintf("w%d", r.Intn(8)),
		}
		if r.Intn(4) == 0 {
			batch[i].Err = "boom"
		}
	}
	return batch
}

type frameStruct struct {
	N int
	S string
}

func init() { RegisterType(frameStruct{}) }

// frameValues is one value of every value-codec tag plus a registered
// struct, the shapes a result can carry.
var frameValues = []any{
	nil, true, false, int(-3), int64(1 << 40), 2.5, "s",
	[]byte{1, 2}, []string{"a"}, []int{-1, 2}, []float64{0.5},
	[]any{1, "in", nil}, map[string]any{"x": 1}, map[string]string{"k": "v"},
	frameStruct{N: 9, S: "nine"},
}

// TestFrameRoundTrip round-trips task, result and id batches of 0, 1 and 64
// elements. Task payloads and result values cycle through every value tag
// plus a RegisterType'd struct.
func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		tasks := make([]WireTask, n)
		results := make([]ResultMsg, n)
		ids := make([]int64, n)
		for i := 0; i < n; i++ {
			v := frameValues[i%len(frameValues)]
			p, err := EncodeArgs([]any{v}, map[string]any{"v": v})
			if err != nil {
				t.Fatal(err)
			}
			tasks[i] = WireTask{ID: int64(i) - 7, App: "app", Priority: -i, Tenant: "ten", Weight: i, P: p.Bytes()}
			results[i] = ResultMsg{ID: int64(i) << 40, Value: v, Err: strings.Repeat("e", i%3), WorkerID: "w"}
			ids[i] = int64(i)*-977 + 3
		}

		gotTasks, err := ParseTasks(AppendTasks(nil, tasks))
		if err != nil {
			t.Fatalf("n=%d: tasks: %v", n, err)
		}
		if !reflect.DeepEqual(gotTasks, tasks) {
			t.Fatalf("n=%d: task batch changed in transit", n)
		}
		for i, w := range gotTasks {
			args, kw, err := DecodeArgsBytes(w.P)
			if err != nil {
				t.Fatalf("n=%d task %d: %v", n, i, err)
			}
			want := frameValues[i%len(frameValues)]
			if !reflect.DeepEqual(args[0], want) || !reflect.DeepEqual(kw["v"], want) {
				t.Fatalf("n=%d task %d: args %#v %#v, want %#v", n, i, args[0], kw["v"], want)
			}
		}

		frame := AppendResults(nil, results)
		gotResults, err := ParseResults(frame)
		if err != nil {
			t.Fatalf("n=%d: results: %v", n, err)
		}
		if !reflect.DeepEqual(gotResults, results) {
			t.Fatalf("n=%d: result batch changed in transit:\n%#v\n%#v", n, gotResults, results)
		}
		gotIDs, err := ParseResultIDs(frame)
		if err != nil || len(gotIDs) != n {
			t.Fatalf("n=%d: result ids %v, %v", n, gotIDs, err)
		}
		for i, id := range gotIDs {
			if id != results[i].ID {
				t.Fatalf("n=%d: result id %d = %d, want %d", n, i, id, results[i].ID)
			}
		}

		gotIDs, err = ParseIDs(AppendIDs(nil, ids))
		if err != nil || !reflect.DeepEqual(gotIDs, ids) {
			t.Fatalf("n=%d: ids %v, %v", n, gotIDs, err)
		}
	}
}

// TestStreamRoundTripTaskAndResultBatches drives many randomly sized task
// and result batches through one reused send buffer, as a link does, and
// checks every batch survives unchanged (args included).
func TestStreamRoundTripTaskAndResultBatches(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf []byte
	for round := 0; round < 50; round++ {
		if round%2 == 0 {
			in := mkTaskBatch(r, 1+r.Intn(8))
			buf = AppendTasks(buf[:0], in)
			out, err := ParseTasks(buf)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round %d: task batch mutated in transit", round)
			}
			// The payload must decode to executable args on the far side.
			got, err := out[0].Task()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Args) != 3 || got.Kwargs["mode"] != "m" {
				t.Fatalf("args lost: %+v", got)
			}
		} else {
			in := mkResultBatch(r, 1+r.Intn(8))
			buf = AppendResults(buf[:0], in)
			out, err := ParseResults(buf)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round %d: result batch mutated in transit", round)
			}
		}
	}
}

// TestFrameDecodesWithoutSession: a receiver that appears mid-connection
// decodes whatever frame arrives first, in any order — no frame depends on
// an earlier one.
func TestFrameDecodesWithoutSession(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var frames [][]byte
	var batches [][]ResultMsg
	for i := 0; i < 5; i++ {
		b := mkResultBatch(r, 3)
		batches = append(batches, b)
		frames = append(frames, AppendResults(nil, b))
	}
	for _, i := range []int{4, 2, 0, 3, 1} {
		out, err := ParseResults(frames[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, batches[i]) {
			t.Fatalf("frame %d mutated", i)
		}
	}
}

// TestStreamConcurrentEncodes has many goroutines frame results onto one
// shared sink with no lock around encode and send, as concurrent senders on
// a link do. Every frame must decode to exactly one uncorrupted message.
func TestStreamConcurrentEncodes(t *testing.T) {
	const workers, perWorker = 8, 50
	var mu sync.Mutex
	var frames [][]byte
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < perWorker; i++ {
				batch := []ResultMsg{{ID: int64(w*perWorker + i), WorkerID: fmt.Sprintf("w%d", w)}}
				buf = AppendResults(buf[:0], batch)
				mu.Lock()
				frames = append(frames, append([]byte(nil), buf...))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int64]bool)
	for i, f := range frames {
		out, err := ParseResults(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(out) != 1 || seen[out[0].ID] {
			t.Fatalf("frame %d: bad or duplicate message %+v", i, out)
		}
		seen[out[0].ID] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("recovered %d messages, want %d", len(seen), workers*perWorker)
	}
}

// TestStreamDecodeRejectsGarbage covers the parsers' failure modes: short
// frames, garbage, a frame of the wrong kind, and trailing bytes under a
// valid checksum.
func TestStreamDecodeRejectsGarbage(t *testing.T) {
	if _, err := ParseResults([]byte{1, 2}); err == nil {
		t.Fatal("short frame decoded")
	}
	if _, err := ParseTasks([]byte("garbage frame")); err == nil {
		t.Fatal("garbage decoded")
	}
	ids := AppendIDs(nil, []int64{1, 2})
	if _, err := ParseResults(ids); err == nil {
		t.Fatal("id frame decoded as results")
	}
	if _, err := ParseTasks(ids); err == nil {
		t.Fatal("id frame decoded as tasks")
	}
	trailing := sealFrame(append(AppendIDs(nil, []int64{1}), 0), 0)
	if _, err := ParseIDs(trailing); err == nil {
		t.Fatal("frame with trailing bytes decoded")
	}
	// Parsing is stateless: real frames still decode after garbage.
	if got, err := ParseIDs(ids); err != nil || len(got) != 2 {
		t.Fatalf("ids after garbage: %v, %v", got, err)
	}
}

// TestFrameUnencodableResultValue: a result whose value cannot be encoded
// travels as that result's error, and the rest of the batch is unaffected.
func TestFrameUnencodableResultValue(t *testing.T) {
	type unregistered struct{ X int }
	in := []ResultMsg{
		{ID: 1, Value: "ok", WorkerID: "w"},
		{ID: 2, Value: make(chan int), WorkerID: "w"},
		{ID: 3, Value: unregistered{X: 1}, WorkerID: "w"},
		{ID: 4, Value: []any{1, make(chan int)}, WorkerID: "w"},
		{ID: 5, Value: 5, WorkerID: "w"},
	}
	out, err := ParseResults(AppendResults(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d results, want %d", len(out), len(in))
	}
	for _, i := range []int{0, 4} {
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Fatalf("result %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	for _, i := range []int{1, 2, 3} {
		if out[i].ID != in[i].ID || out[i].Value != nil || !strings.Contains(out[i].Err, "encode result") {
			t.Fatalf("result %d = %+v, want an encode error", i, out[i])
		}
	}
}

// Property: any (ids × value × error) result batch and any id list
// round-trips losslessly, whatever frames were built before it.
func TestQuickStreamRoundTrip(t *testing.T) {
	var buf []byte
	prop := func(ids []int64, val int, errStr string) bool {
		in := make([]ResultMsg, len(ids))
		for i, id := range ids {
			in[i] = ResultMsg{ID: id, Value: val, Err: errStr}
		}
		buf = AppendResults(buf[:0], in)
		out, err := ParseResults(buf)
		if err != nil || !reflect.DeepEqual(in, out) {
			return false
		}
		buf = AppendIDs(buf[:0], ids)
		got, err := ParseIDs(buf)
		return err == nil && len(got) == len(ids) && (len(ids) == 0 || reflect.DeepEqual(got, ids))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameChecksumDetectsEveryByteFlip is the integrity property the chaos
// plane depends on: a frame with any single byte flipped, or cut short
// anywhere, must fail to parse — never decode silently into wrong data.
// (Before frames carried a CRC-32C, a flipped byte inside an encoded integer
// could decode "successfully" and deliver a wrong task result; chaos seed 4
// caught it.)
func TestFrameChecksumDetectsEveryByteFlip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	cases := []struct {
		name  string
		frame []byte
		parse func([]byte) error
	}{
		{"tasks", AppendTasks(nil, mkTaskBatch(r, 2)), func(b []byte) error { _, err := ParseTasks(b); return err }},
		{"results", AppendResults(nil, []ResultMsg{{ID: 77, Value: 12345, WorkerID: "w"}}), func(b []byte) error { _, err := ParseResults(b); return err }},
		{"result ids", AppendResults(nil, []ResultMsg{{ID: 77, Value: 12345, WorkerID: "w"}}), func(b []byte) error { _, err := ParseResultIDs(b); return err }},
		{"ids", AppendIDs(nil, []int64{77, -1, 1 << 50}), func(b []byte) error { _, err := ParseIDs(b); return err }},
	}
	for _, c := range cases {
		if err := c.parse(c.frame); err != nil {
			t.Fatalf("%s: pristine frame: %v", c.name, err)
		}
		for i := range c.frame {
			cp := append([]byte(nil), c.frame...)
			cp[i] ^= 0xA5
			if err := c.parse(cp); err == nil {
				t.Fatalf("%s: flip of byte %d decoded silently", c.name, i)
			}
		}
		for n := 0; n < len(c.frame); n++ {
			if err := c.parse(c.frame[:n]); err == nil {
				t.Fatalf("%s: truncation to %d bytes decoded silently", c.name, n)
			}
		}
	}
}

// TestOneShotChecksum: id lists, once one-shot gob control frames, carry the
// same integrity guarantee as task and result frames.
func TestOneShotChecksum(t *testing.T) {
	frame := AppendIDs(nil, []int64{9})
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, err := ParseIDs(bad); err == nil {
		t.Fatal("corrupted id frame decoded")
	}
	if ids, err := ParseIDs(frame); err != nil || ids[0] != 9 {
		t.Fatalf("pristine id frame: %v %v", err, ids)
	}
}

// TestFrameCorruptCountCannotForceAllocation: a frame whose count claims
// far more elements than its bytes could hold is rejected before anything
// is sized by the count, even under a valid checksum.
func TestFrameCorruptCountCannotForceAllocation(t *testing.T) {
	parsers := map[byte]func([]byte) error{
		frameTasks:   func(b []byte) error { _, err := ParseTasks(b); return err },
		frameResults: func(b []byte) error { _, err := ParseResults(b); return err },
		frameIDs:     func(b []byte) error { _, err := ParseIDs(b); return err },
	}
	for kind, parse := range parsers {
		w := openFrame(nil, kind, 1<<20)
		w.b = append(w.b, 1, 2, 3)
		frame := sealFrame(w.b, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := parse(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("kind %d: corrupt count decoded", kind)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("kind %d: corrupt count allocated %d bytes", kind, grew)
		}
	}
}

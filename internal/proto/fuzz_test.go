package proto

import (
	"bytes"
	"testing"
)

// malformedFrames returns seed frames that sit just off the valid
// encoding: a frame cut short of its declared length, a frame whose
// payload is shorter than its type needs, an unknown type code, and a
// frame carrying a trailing byte past its payload.
func malformedFrames() [][]byte {
	install := Encode(nil, &CacheInstall{Ingress: 5, Rules: []FlowMod{
		{Table: TableCache, Op: OpAdd, Rule: sampleRule(3), Idle: 5},
	}})
	cut := install[:len(install)-1]

	short := Encode(nil, &Heartbeat{Node: 8, Seq: 42})
	short = short[:len(short)-3]
	short[3] -= 3 // header length matches the shortened payload

	unknown := []byte{0, 0, 0, 1, byte(MsgBFDControl) + 1}

	trailing := append(Encode(nil, &BFDControl{Node: 1, State: 1}), 0)
	trailing[3]++

	return [][]byte{cut, short, unknown, trailing}
}

// FuzzReadMessage feeds arbitrary byte streams to the frame decoder: no
// panics, no unbounded allocation (the MaxFrame guard), and anything
// accepted must re-encode and re-decode to the same message type.
func FuzzReadMessage(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Encode(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 99})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	for _, b := range malformedFrames() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := Encode(nil, msg)
		again, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round trip: %v vs %v", again.Type(), msg.Type())
		}
	})
}

// FuzzDecodeFrame feeds arbitrary byte slices to the in-memory frame
// decoder: it must never panic, must agree with the streaming decoder on
// acceptance, must report a consistent consumed-byte count, and anything
// accepted must survive a re-encode/re-decode round trip.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Encode(nil, m))
	}
	// Two frames back to back: consumed must point at the second.
	double := Encode(Encode(nil, &BarrierReq{XID: 1}), &BarrierReply{XID: 1})
	f.Add(double)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 99})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	// CacheInstall declaring a huge rule count with no rule bytes: must be
	// rejected as truncated, not allocated.
	bomb := appendU32(nil, 0)
	bomb = append(bomb, byte(MsgCacheInstall))
	bomb = appendU32(bomb, 7)          // ingress
	bomb = appendU32(bomb, 0x00030000) // count ≫ payload
	putU32 := func(b []byte, v uint32) {
		b[0] = byte(v >> 24)
		b[1] = byte(v >> 16)
		b[2] = byte(v >> 8)
		b[3] = byte(v)
	}
	putU32(bomb[:4], uint32(len(bomb)-4))
	f.Add(bomb)
	for _, b := range malformedFrames() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeFrame(data)
		streamed, serr := ReadMessage(bytes.NewReader(data))
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeFrame err=%v but ReadMessage err=%v", err, serr)
		}
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < 5 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if streamed.Type() != msg.Type() {
			t.Fatalf("decoders disagree: %v vs %v", msg.Type(), streamed.Type())
		}
		out := Encode(nil, msg)
		again, n2, err := DecodeFrame(out)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if n2 != len(out) {
			t.Fatalf("re-decode consumed %d of %d", n2, len(out))
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round trip: %v vs %v", again.Type(), msg.Type())
		}
	})
}

package proto

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"difane/internal/flowspace"
)

func sampleRule(id uint64) flowspace.Rule {
	return flowspace.Rule{
		ID:       id,
		Priority: 42,
		Match: flowspace.MatchAll().
			WithPrefix(flowspace.FIPSrc, 0x0A000000, 8).
			WithExact(flowspace.FTPDst, 80),
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: 9},
	}
}

func allMessages() []Message {
	return []Message{
		&FlowMod{Table: TableCache, Op: OpDelete, Rule: sampleRule(6), Epoch: 1},
		&FlowMod{Table: TableCache, Op: OpAdd, Rule: sampleRule(1), Idle: 10, Hard: 60},
		&FlowMod{Table: TablePartition, Op: OpDelete, Rule: sampleRule(2)},
		&CacheInstall{Ingress: 5, Rules: []FlowMod{
			{Table: TableCache, Op: OpAdd, Rule: sampleRule(3), Idle: 5},
			{Table: TableCache, Op: OpAdd, Rule: sampleRule(4), Hard: 30},
		}},
		&CacheInstall{Ingress: 6}, // empty rule list
		&BarrierReq{XID: 11},
		&BarrierReply{XID: 11},
		&StatsReq{XID: 12, RuleID: 99},
		&StatsReply{XID: 12, Packets: 1000, Bytes: 123456, OK: true},
		&StatsReply{XID: 13, OK: false},
		&StatsReq{},
		&BarrierReq{},
		&FlowMod{Table: TableAuthority, Op: OpAdd, Rule: sampleRule(5), Epoch: 3},
		&EpochReport{Node: 2, Epoch: 7},
		&EpochReport{},
		&BFDControl{
			Node: 3, State: 3,
			MyDiscr: 0x1001, YourDiscr: 0x2002,
			DesiredMinTx: 2_000_000, RequiredMinRx: 2_000_000, DetectMult: 3,
		},
		&BFDControl{Node: 1, State: 1},
		&BFDControl{},
	}
}

func TestDecodeFrameMultiple(t *testing.T) {
	var buf []byte
	msgs := allMessages()
	for _, m := range msgs {
		buf = Encode(buf, m)
	}
	for i := 0; len(buf) > 0; i++ {
		m, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, m, msgs[i])
		}
		buf = buf[n:]
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	full := Encode(nil, &FlowMod{Table: TableCache, Op: OpAdd, Rule: sampleRule(1), Epoch: 2})
	for cut := 0; cut < len(full); cut++ {
		if _, n, err := DecodeFrame(full[:cut]); err == nil || n != 0 {
			t.Fatalf("cut=%d: accepted truncated frame (n=%d err=%v)", cut, n, err)
		}
	}
}

func TestCacheInstallForgedCountRejected(t *testing.T) {
	payload := appendU32(nil, 7)         // ingress
	payload = appendU32(payload, 100000) // count with no rule bytes behind it
	var m CacheInstall
	if err := m.decodePayload(payload); err == nil {
		t.Fatal("forged rule count must not decode")
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		buf := Encode(nil, m)
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	msgs := allMessages()
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("message %d type %v want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("reading past the stream end must fail")
	}
}

func TestRuleEncodingPreservesWildcards(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 300; i++ {
		r := flowspace.Rule{
			ID:       rng.Uint64(),
			Priority: int32(rng.Int31()),
			Action: flowspace.Action{
				Kind: flowspace.ActionKind(rng.Intn(5)),
				Arg:  rng.Uint32(),
			},
		}
		// Constrain a random subset of fields.
		for f := flowspace.FieldID(0); f < flowspace.NumFields; f++ {
			if rng.Intn(3) == 0 {
				r.Match = r.Match.WithPrefix(f, rng.Uint64(), uint(rng.Intn(int(f.Width())+1)))
			}
		}
		m := &FlowMod{Table: TableAuthority, Op: OpAdd, Rule: r}
		buf := Encode(nil, m)
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.(*FlowMod).Rule, r) {
			t.Fatalf("rule round trip:\n got %+v\nwant %+v", got.(*FlowMod).Rule, r)
		}
	}
}

func TestTruncatedFrames(t *testing.T) {
	buf := Encode(nil, &FlowMod{Table: TableCache, Op: OpAdd, Rule: sampleRule(1)})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := ReadMessage(bytes.NewReader(buf[:cut])); err == nil {
			t.Fatalf("truncated frame %d/%d must fail", cut, len(buf))
		}
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	buf := Encode(nil, &BarrierReq{XID: 1})
	buf[0] = 0xFF // absurd length
	if _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	zero := []byte{0, 0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(zero)); err == nil {
		t.Fatal("zero-length frame must fail")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	buf := Encode(nil, &BarrierReq{XID: 1})
	buf[4] = 200 // type byte
	if _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	// A CacheInstall claiming more rules than the payload holds.
	m := &CacheInstall{Ingress: 1, Rules: []FlowMod{{Table: TableCache, Op: OpAdd, Rule: sampleRule(1)}}}
	buf := Encode(nil, m)
	// Bump the rule count field (4 bytes length + 1 type + 4 ingress +
	// 8 trace).
	buf[17+3]++
	if _, err := ReadMessage(bytes.NewReader(buf)); err == nil {
		t.Fatal("payload with overstated rule count must fail")
	}
}

func TestOverPipe(t *testing.T) {
	// Full framing across a real net.Pipe, as wire mode uses it.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		for _, m := range allMessages() {
			if err := WriteMessage(a, m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for range allMessages() {
		if _, err := ReadMessage(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgFlowMod.String() != "flow-mod" {
		t.Fatalf("got %q", MsgFlowMod.String())
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type must render")
	}
}

package kernel

import (
	"fmt"
	"os/exec"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/wire"
)

// The message-lifetime rule (DESIGN.md §11): a received payload lives in the
// node's inbox and is valid until its handler returns, so a handler that
// keeps one copies it; and nothing on the send path calls a method through
// the Payload interface, so a payload literal stays on its sender's stack.

// quiescedCluster boots a trivial program on the given models and runs it
// dry (abandoning the weak periodic ticks), leaving live kernels with
// nothing scheduled.
func quiescedCluster(t *testing.T, models []netsim.MachineModel, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(compileSrc(t, `object Main
  process
    print(1)
  end process
end Main`), models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(nil)
	if err := c.Run(100_000); err != nil {
		t.Fatal(err)
	}
	return c
}

func marshalFrom(src, dst int, p wire.Payload) []byte {
	return (&wire.Msg{Src: int32(src), Dst: int32(dst), Seq: 1, Payload: p}).Marshal()
}

// TestParkedMessagesSurviveInboxReuse: an Invoke and an UnfixReq that arrive
// for an object in transit are parked; later traffic of the same kinds
// overwrites the inbox values and arenas they were decoded into; when the
// move commits the parked messages are forwarded to the new home with their
// original contents.
func TestParkedMessagesSurviveInboxReuse(t *testing.T) {
	c := quiescedCluster(t, []netsim.MachineModel{mSPARC, mVAX, mSun3}, Config{})
	n0 := c.Nodes[0]
	obj := &Obj{OID: oid.ForRuntime(0, 900), Resident: true, transit: &moveTxn{}}
	n0.objects[obj.OID] = obj

	invoke := &wire.Invoke{Target: obj.OID, OpName: "deposit", Origin: 1, CallerFrag: 0x01000007,
		Args:  []wire.Value{wire.IntV(41), wire.StringV([]byte("parked argument")), wire.RefV(77)},
		Hints: []wire.LocHint{{OID: 77, Node: 1}}}
	unfix := &wire.UnfixReq{Target: obj.OID, Refix: true, Dest: 2}
	n0.deliverInner(1, marshalFrom(1, 0, invoke))
	n0.deliverInner(1, marshalFrom(1, 0, unfix))
	if got := len(obj.transit.parked); got != 2 {
		t.Fatalf("%d operations parked, want 2", got)
	}

	// Same kinds, same shapes, other contents, for an object node 0 has never
	// heard of: the invoke bounces a fault Return, the unfix is dropped.
	stranger := oid.ForRuntime(1, 901)
	n0.deliverInner(1, marshalFrom(1, 0, &wire.Invoke{Target: stranger, OpName: "withdraw", Origin: 1,
		CallerFrag: 0x01000008,
		Args:       []wire.Value{wire.IntV(13), wire.StringV([]byte("OVERWRITTEN....")), wire.RefV(99)},
		Hints:      []wire.LocHint{{OID: 99, Node: 2}}}))
	n0.deliverInner(1, marshalFrom(1, 0, &wire.UnfixReq{Target: stranger, Dest: 1}))

	// The move commits: the object now lives on node 2, and the parked
	// operations replay — which forwards them there.
	var forwarded []wire.Payload
	c.Net.Attach(2, func(src int, buf []byte) {
		m, err := wire.Unmarshal(buf)
		if err != nil {
			t.Fatalf("node 2 received an undecodable message: %v", err)
		}
		forwarded = append(forwarded, m.Payload)
	})
	parked := obj.transit.parked
	obj.transit, obj.Resident, obj.LastKnown = nil, false, 2
	for _, replay := range parked {
		replay()
	}
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if want := []wire.Payload{invoke, unfix}; !reflect.DeepEqual(forwarded, want) {
		show := func(ps []wire.Payload) (s string) {
			for _, p := range ps {
				s += fmt.Sprintf("\n  %+v", p)
			}
			return s
		}
		t.Fatalf("node 2 was forwarded%s\nwant the parked originals%s", show(forwarded), show(want))
	}
}

// TestFixedShapeMessageAllocatesNothing: chaos-off, a message without lists
// costs no allocation anywhere — built on the sender's stack, marshalled
// into a pooled encoder, copied into the network's pooled buffer, decoded
// into the receiver's inbox. The handlers chosen do nothing (the messages
// name objects, spans and queries nobody knows), so any allocation here is
// the message path's own.
func TestFixedShapeMessageAllocatesNothing(t *testing.T) {
	c := quiescedCluster(t, []netsim.MachineModel{mSPARC, mVAX, mSun3, mHP1}, dirConfig(3, nil))
	n0, n1 := c.Nodes[0], c.Nodes[1]
	nobody := oid.ForRuntime(3, 902)
	for _, tc := range []struct {
		name string
		send func()
		p    wire.Payload
	}{
		{"updateloc", func() { n0.sendMsg(1, &wire.UpdateLoc{Target: nobody, Node: 2, Epoch: 3}) },
			&wire.UpdateLoc{Target: nobody, Node: 2, Epoch: 3}},
		{"unfixreq", func() { n0.sendMsg(1, &wire.UnfixReq{Target: nobody, Refix: true, Dest: 2}) },
			&wire.UnfixReq{Target: nobody, Refix: true, Dest: 2}},
		{"moveack", func() { n0.sendMsg(1, &wire.MoveAck{Object: nobody, SpanID: 999, Epoch: 1, Ok: true}) },
			&wire.MoveAck{Object: nobody, SpanID: 999, Epoch: 1, Ok: true}},
		{"diraccepted", func() { n0.dirSend(1, &wire.DirAccepted{Ballot: 1 << 16, Ok: true}) },
			&wire.DirAccepted{Ballot: 1 << 16, Ok: true}},
		{"dirlookupreply", func() { n0.dirSend(1, &wire.DirLookupReply{Target: nobody, Token: 999, Node: -1}) },
			&wire.DirLookupReply{Target: nobody, Token: 999, Node: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := marshalFrom(0, 1, tc.p)
			receive := func() { n1.deliverInner(0, buf) }
			receive() // warm: the inbox's value of this kind
			if got := testing.AllocsPerRun(200, receive); got != 0 {
				t.Errorf("receiving through deliverInner = %v allocs, want 0", got)
			}
			life := func() {
				tc.send()
				if err := c.Run(1000); err != nil {
					t.Fatal(err)
				}
			}
			life() // warm: encoder pool, network buffers, event queue
			recv := n1.MsgsRecv
			if got := testing.AllocsPerRun(200, life); got != 0 {
				t.Errorf("sent, carried and received = %v allocs, want 0", got)
			}
			if n1.MsgsRecv != recv+201 {
				t.Errorf("node 1 received %d messages, want 201", n1.MsgsRecv-recv)
			}
		})
	}
}

// TestPayloadLiteralsStayOnTheStack asks the compiler: of every &wire.X{…}
// literal in this package, only the Move that a group collector may hold
// on to may escape to the heap. One p.Kind()-style call through the
// Payload interface on the send path would put all the others back there.
func TestPayloadLiteralsStayOnTheStack(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the package with -gcflags=-m")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^\./(\w+\.go):\d+:\d+: (&wire\.\w+)\{.*\} escapes to heap$`).
		FindAllStringSubmatch(string(out), -1) {
		got = append(got, m[1]+" "+m[2])
	}
	slices.Sort(got)
	want := []string{"migrate.go &wire.Move"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wire literals escaping to the heap:\n  %s\nwant only:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

package chaos

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/exec"
	"numacs/internal/hw"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/sched"
	"numacs/internal/sim"
	"numacs/internal/topology"
)

// testRig builds the substrates an injector acts on.
func testRig() (*exec.Env, *placement.Placer) {
	m := topology.FourSocketIvyBridge()
	e := sim.New(25e-6)
	h := hw.New(e, m)
	s := sched.New(h, metrics.New(m.Sockets))
	e.AddActor(s)
	return &exec.Env{Machine: m, Sim: e, HW: h, Sched: s}, placement.New(m)
}

// Events fire when their time arrives, in order, and the log records what
// each one did.
func TestScheduleFiresInOrder(t *testing.T) {
	env, p := testRig()
	e, h, s := env.Sim, env.HW, env.Sched
	c := colstore.NewSynthetic("hot", 10000, 100, false)
	c.Synthetic = true
	p.PlaceColumnOnSocket(c, 0)
	p.AddReplica(c, 1)
	p.AddReplica(c, 2)

	in := New(Config{Schedule: []Event{
		// Deliberately out of time order: New sorts stably.
		{At: 200e-6, Kind: SocketOnline, Socket: 1},
		{At: 100e-6, Kind: SocketOffline, Socket: 1},
		{At: 100e-6, Kind: MCThrottle, Socket: 0, Factor: 0.5},
	}}, env, p, []*colstore.Column{c})
	e.AddActor(in)

	if in.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", in.Pending())
	}
	e.Run(150e-6)
	if in.Pending() != 1 {
		t.Fatalf("pending after first batch = %d, want 1", in.Pending())
	}
	if len(in.Applied) != 2 || in.Applied[0].Kind != SocketOffline || in.Applied[1].Kind != MCThrottle {
		t.Fatalf("applied log = %+v", in.Applied)
	}
	if in.Applied[0].ReplicasDropped != 1 {
		t.Fatalf("offline dropped %d replicas, want 1 (socket 1's)", in.Applied[0].ReplicasDropped)
	}
	if got := e.ResourceCapacity(h.MC[0]); got != 0.5*h.Machine.MCBandwidth {
		t.Fatalf("MC 0 capacity = %v, want half", got)
	}
	if s.SocketOnline(1) {
		t.Fatal("socket 1 should be offline")
	}
	// Socket 2's replica survives; socket 1's is gone and not restored.
	e.Run(250e-6)
	if in.Pending() != 0 {
		t.Fatalf("pending = %d after full schedule", in.Pending())
	}
	if !s.SocketOnline(1) {
		t.Fatal("socket 1 should be back online")
	}
	if got := len(c.ReplicaSockets); got != 2 { // primary + socket 2
		t.Fatalf("replica sockets = %v, want primary+2", c.ReplicaSockets)
	}
	for _, rs := range c.ReplicaSockets {
		if rs == 1 {
			t.Fatal("socket 1 replica should stay invalidated until the placer re-replicates")
		}
	}
}

// An empty schedule is inert: the injector never touches the engine.
func TestEmptyScheduleIsInert(t *testing.T) {
	env, p := testRig()
	in := New(Config{}, env, p, nil)
	env.Sim.AddActor(in)
	env.Sim.Run(1e-3)
	if len(in.Applied) != 0 || in.Pending() != 0 {
		t.Fatalf("empty schedule applied %d events", len(in.Applied))
	}
}

func TestBadSchedulesPanic(t *testing.T) {
	env, p := testRig()
	cases := []Config{
		{Schedule: []Event{{Kind: MCThrottle, Socket: 0, Factor: 0}}},
		{Schedule: []Event{{Kind: SocketOffline, Socket: 7}}},
		{Schedule: []Event{{Kind: Kind(99), Socket: 0}}},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad schedule should panic", i)
				}
			}()
			New(cfg, env, p, nil)
		}()
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		SocketOffline: "socket-offline",
		SocketOnline:  "socket-online",
		MCThrottle:    "mc-throttle",
		LinkThrottle:  "link-throttle",
	} {
		if k.String() != want {
			t.Fatalf("kind %d stringifies as %q", int(k), k.String())
		}
	}
}

package sched

import (
	"testing"

	"numacs/internal/topology"
)

// TestStealPrefersSameSocket verifies the Section 5.1 stealing order: a free
// worker first drains its own socket's queues before going around the other
// sockets, regardless of cross-socket priorities.
func TestStealPrefersSameSocket(t *testing.T) {
	m := topology.ThirtyTwoSocketIvyBridge() // two TGs per socket
	s, e := testSched(m)
	var ran []int

	// Occupy every worker of the machine except one on socket 3 with tasks
	// that never complete.
	for i := 0; i < m.ThreadsPerSocket()-1; i++ {
		s.Submit(&Task{Affinity: 3, Hard: true, Priority: -1,
			Run: func(w *Worker, done func()) {}})
	}
	for sock := 0; sock < m.Sockets; sock++ {
		if sock == 3 {
			continue
		}
		for i := 0; i < m.ThreadsPerSocket(); i++ {
			s.Submit(&Task{Affinity: sock, Hard: true, Priority: -1,
				Run: func(w *Worker, done func()) {}})
		}
	}
	e.Step()
	if got := s.Saturation().Free; got != 1 {
		t.Fatalf("setup: %d free workers, want exactly 1 (on socket 3)", got)
	}

	// Two candidate tasks: a same-socket one (queued on socket 3, which the
	// free worker's own TG may or may not own) and a remote one with HIGHER
	// priority on socket 7. Same-socket must still win: priority orders
	// within queues, not across sockets.
	s.Submit(&Task{Affinity: 3, Priority: 10,
		Run: func(w *Worker, done func()) { ran = append(ran, w.Socket()); done() }})
	s.Submit(&Task{Affinity: 7, Priority: 0,
		Run: func(w *Worker, done func()) { ran = append(ran, w.Socket()); done() }})
	stolenBefore := s.Counters.TasksStolen
	e.Step()
	// Both tasks complete synchronously, so the single free worker runs both
	// within one dispatch tick: the same-socket task first (local dispatch
	// precedes the stealing pass), then the remote one as an inter-socket
	// steal — still executing on socket 3.
	if len(ran) != 2 {
		t.Fatalf("dispatch tick ran %d tasks, want 2 (the lone free worker serves both)", len(ran))
	}
	if ran[0] != 3 {
		t.Fatalf("first executed task ran on socket %d, want same-socket 3", ran[0])
	}
	if ran[1] != 3 {
		t.Fatalf("stolen task ran on socket %d, want 3 (the only free worker)", ran[1])
	}
	if got := s.Counters.TasksStolen - stolenBefore; got != 1 {
		t.Fatalf("inter-socket steals = %d, want 1", got)
	}
}

// TestWorkerBindingSemantics checks the Section 5.1 binding rule: workers
// bind while handling tasks with an affinity and unbind for tasks without.
func TestWorkerBindingSemantics(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	var boundStates []bool
	s.Submit(&Task{Affinity: 1,
		Run: func(w *Worker, done func()) { boundStates = append(boundStates, w.Bound); done() }})
	s.Submit(&Task{Affinity: -1, CallerSocket: 1,
		Run: func(w *Worker, done func()) { boundStates = append(boundStates, w.Bound); done() }})
	e.Step()
	e.Step()
	if len(boundStates) != 2 {
		t.Fatalf("ran %d tasks", len(boundStates))
	}
	if !boundStates[0] {
		t.Fatal("worker not bound for affinity task")
	}
	if boundStates[1] {
		t.Fatal("worker bound for no-affinity task")
	}
}

// TestIgnorePriorityIsFIFO verifies the ablation knob.
func TestIgnorePriorityIsFIFO(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	s.IgnorePriority = true
	var order []int
	blockDone := []func(){}
	for i := 0; i < 30; i++ {
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: -5,
			Run: func(w *Worker, done func()) { blockDone = append(blockDone, done) }})
	}
	e.Step()
	// Submit with decreasing priorities; FIFO must ignore them.
	for i := 0; i < 4; i++ {
		id := i
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: float64(10 - i),
			Run: func(w *Worker, done func()) { order = append(order, id); done() }})
	}
	for i := 0; i < 4; i++ {
		blockDone[i]()
		e.Step()
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated with IgnorePriority: %v", order)
		}
	}
}

// TestQueuedTasksAccounting checks the queue-depth introspection used by the
// watchdog and the adaptive layer.
func TestQueuedTasksAccounting(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	for i := 0; i < 200; i++ {
		s.Submit(&Task{Affinity: 2, Hard: true, Priority: 0,
			Run: func(w *Worker, done func()) {}})
	}
	// Nothing dispatched yet.
	if got := s.Saturation().Queued; got != 200 {
		t.Fatalf("queued = %d before dispatch", got)
	}
	e.Step()
	// 30 workers on socket 2 started tasks (they never finish).
	if got := s.Saturation().Working; got != 30 {
		t.Fatalf("working = %d, want 30", got)
	}
	if got := s.Saturation().Queued; got != 170 {
		t.Fatalf("queued = %d, want 170", got)
	}
}

// TestSaturationSnapshot checks the saturation exports the admission
// controller's elastic concurrency loop feeds on: worker-state counts,
// per-TG and per-socket queue depths.
func TestSaturationSnapshot(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	s, e := testSched(m)
	perSocket := m.ThreadsPerSocket() // 30
	// Saturate socket 1 and queue 12 extra hard tasks there; leave the rest
	// of the machine idle.
	for i := 0; i < perSocket+12; i++ {
		s.Submit(&Task{Affinity: 1, Hard: true, Priority: 0,
			Run: func(w *Worker, done func()) {}})
	}
	e.Step()
	snap := s.Saturation()
	if snap.Workers() != m.TotalThreads() {
		t.Fatalf("snapshot workers = %d, want %d", snap.Workers(), m.TotalThreads())
	}
	if snap.Working != perSocket {
		t.Fatalf("working = %d, want %d", snap.Working, perSocket)
	}
	if snap.Free != m.TotalThreads()-perSocket {
		t.Fatalf("free = %d, want %d", snap.Free, m.TotalThreads()-perSocket)
	}
	if snap.Parked != 0 || snap.Inactive != 0 {
		t.Fatalf("parked/inactive = %d/%d, want 0/0", snap.Parked, snap.Inactive)
	}
	if snap.Queued != 12 {
		t.Fatalf("queued = %d, want 12 (hard queue is socket-bound)", snap.Queued)
	}
	if len(snap.QueueDepths) != len(s.TGs) || snap.QueueDepths[1] != 12 {
		t.Fatalf("per-TG depths = %v, want 12 on TG 1", snap.QueueDepths)
	}
	bySocket := s.SocketQueueDepths()
	if len(bySocket) != m.Sockets || bySocket[1] != 12 || bySocket[0] != 0 {
		t.Fatalf("per-socket depths = %v", bySocket)
	}
}

// TestWatchdogSamplesSaturationCounters: the watchdog exports its saturation
// observations through the metrics counters.
func TestWatchdogSamplesSaturationCounters(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	s.StealEnabled = false
	for i := 0; i < 45; i++ { // 30 run, 15 queue on socket 0's TG
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: 0,
			Run: func(w *Worker, done func()) {}})
	}
	e.Run(0.01)
	c := s.Counters
	if c.SatSamples == 0 {
		t.Fatal("watchdog recorded no saturation samples")
	}
	if c.SatSamples != s.WatchdogRuns {
		t.Fatalf("samples = %d, watchdog runs = %d", c.SatSamples, s.WatchdogRuns)
	}
	if got := c.MeanQueuedTasks(); got != 15 {
		t.Fatalf("mean queued = %v, want 15 (steady backlog)", got)
	}
	if c.SatTGMaxDepth != 15 {
		t.Fatalf("max TG depth = %d, want 15", c.SatTGMaxDepth)
	}
	if got := c.MeanFreeWorkers(); got != 90 {
		t.Fatalf("mean free = %v, want 90 (three idle sockets)", got)
	}
	// Socket 0's TG is saturated (all 30 working), so no unsaturated
	// observations despite the backlog.
	if c.SatUnsaturated != 0 {
		t.Fatalf("unsaturated samples = %d, want 0", c.SatUnsaturated)
	}
}

// TestWatchdogCountsUnsaturatedTGs: a TG with queued tasks but idle workers
// is "unsaturated" — the real watchdog would wake threads there.
func TestWatchdogCountsUnsaturatedTGs(t *testing.T) {
	s, e := testSched(topology.FourSocketIvyBridge())
	s.StealEnabled = false
	// A burst of blocking tasks on one socket; with stealing off, other TGs
	// stay idle and their queues empty, so no unsaturated observations are
	// expected. Then queue more than the TG can run.
	for i := 0; i < 40; i++ {
		s.Submit(&Task{Affinity: 0, Hard: true, Priority: 0,
			Run: func(w *Worker, done func()) {}})
	}
	e.Run(0.005)
	// Socket 0's TG is saturated (30 working, 10 queued): not "unsaturated".
	if s.UnsaturatedObserved != 0 {
		t.Fatalf("unsaturated observations = %d, want 0", s.UnsaturatedObserved)
	}
	if s.WatchdogRuns == 0 {
		t.Fatal("watchdog idle")
	}
}

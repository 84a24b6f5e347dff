package sim

import (
	"fmt"
	"math"
	"sort"
)

// Time is virtual time in seconds.
type Time = float64

// ResourceID identifies a resource registered with an Engine.
type ResourceID int32

// Invalid is a sentinel for "no resource".
const Invalid ResourceID = -1

// Demand expresses how much capacity of a resource a flow consumes per unit
// of flow progress. A scan flow measured in bytes typically has Weight 1 on
// its memory controller, a coherence-inflated weight on each link of its
// route, and a cycles-per-byte weight on its core.
type Demand struct {
	Resource ResourceID
	Weight   float64
}

// Flow is a unit of in-flight work. Flows are created by tasks (scan phases,
// materialization phases, compute phases) and progress at the rate assigned
// by the max-min allocation each step.
type Flow struct {
	// Remaining is the number of units (bytes, accesses, cycles) left.
	Remaining float64
	// RateCap bounds the flow's own progress rate (units/s), independent of
	// resource contention. Zero or negative means "uncapped".
	RateCap float64
	// Demands lists weighted resource consumption per unit of progress.
	Demands []Demand
	// OnDone fires when Remaining reaches zero. It runs during the engine
	// step, after all flows have advanced; it may start new flows.
	OnDone func()
	// OnAdvance, if set, is called each step with the progress made. Used by
	// the metrics layer to attribute traffic.
	OnAdvance func(progress float64)

	rate   float64
	seq    uint64
	active bool
	frozen bool    // scratch for the allocator
	effCap float64 // scratch: rate cap bounded by Remaining/step
}

// Rate reports the most recently allocated rate (units/s).
func (f *Flow) Rate() float64 { return f.rate }

// Actor is ticked once per engine step, before rate allocation. The
// scheduler, clients, the watchdog, and the adaptive data placer are actors.
type Actor interface {
	Tick(now Time)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(now Time)

// Tick implements Actor.
func (fn ActorFunc) Tick(now Time) { fn(now) }

// Engine is the time-stepped fluid simulator.
type Engine struct {
	step Time
	now  Time

	names     []string
	caps      []float64
	usage     []float64 // cumulative units consumed per resource
	residual  []float64 // scratch for the allocator
	load      []float64 // scratch for the allocator
	cappedBuf []*Flow   // scratch for the allocator

	flows   []*Flow
	nextSeq uint64

	actors []Actor

	// Stats.
	steps     uint64
	completed uint64
}

// New creates an engine with the given step length in seconds.
func New(step Time) *Engine {
	if step <= 0 {
		panic("sim: step must be positive")
	}
	return &Engine{step: step}
}

// Step returns the configured step length.
func (e *Engine) StepLen() Time { return e.step }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of steps executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// CompletedFlows returns the number of flows that have completed.
func (e *Engine) CompletedFlows() uint64 { return e.completed }

// AddResource registers a resource with the given capacity in units/s and
// returns its id.
func (e *Engine) AddResource(name string, capacity float64) ResourceID {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q must have positive capacity", name))
	}
	id := ResourceID(len(e.caps))
	e.names = append(e.names, name)
	e.caps = append(e.caps, capacity)
	e.usage = append(e.usage, 0)
	e.residual = append(e.residual, 0)
	e.load = append(e.load, 0)
	return id
}

// SetResourceCapacity changes a resource's capacity in units/s, taking effect
// at the next allocation (the allocator re-reads capacities every step, so a
// capacity write costs nothing when unused). This is the fault-injection hook
// the chaos layer's bandwidth throttles scale live capacities through.
func (e *Engine) SetResourceCapacity(id ResourceID, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q must have positive capacity", e.names[id]))
	}
	e.caps[id] = capacity
}

// ResourceCapacity returns the capacity of a resource in units/s.
func (e *Engine) ResourceCapacity(id ResourceID) float64 { return e.caps[id] }

// ResourceUsage returns the cumulative units consumed on a resource.
func (e *Engine) ResourceUsage(id ResourceID) float64 { return e.usage[id] }

// ActiveDemand sums the demand weight currently-active flows place on each of
// the given resources, returning one total per id in order. It is an
// instantaneous utilization probe — unlike ResourceUsage, which is
// cumulative — and is what replica-aware scheduling weighs sockets by.
func (e *Engine) ActiveDemand(ids []ResourceID) []float64 {
	out := make([]float64, len(ids))
	if len(ids) == 0 {
		return out
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	idx := make([]int, hi-lo+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ids {
		idx[id-lo] = i
	}
	for _, f := range e.flows {
		for _, d := range f.Demands {
			if d.Resource >= lo && d.Resource <= hi {
				if i := idx[d.Resource-lo]; i >= 0 {
					out[i] += d.Weight
				}
			}
		}
	}
	return out
}

// AddActor registers an actor ticked each step, in registration order.
func (e *Engine) AddActor(a Actor) { e.actors = append(e.actors, a) }

// StartFlow activates a flow. A zero-Remaining flow completes on the next
// step. The same Flow value must not be started twice concurrently.
func (e *Engine) StartFlow(f *Flow) {
	if f.active {
		panic("sim: flow already active")
	}
	f.active = true
	f.seq = e.nextSeq
	e.nextSeq++
	e.flows = append(e.flows, f)
}

// AbortFlow deactivates a flow without firing OnDone.
func (e *Engine) AbortFlow(f *Flow) {
	if !f.active {
		return
	}
	f.active = false
	for i, g := range e.flows {
		if g == f {
			e.flows = append(e.flows[:i], e.flows[i+1:]...)
			return
		}
	}
}

// ActiveFlows returns the number of currently active flows.
func (e *Engine) ActiveFlows() int { return len(e.flows) }

// Step advances virtual time by one step: tick actors, allocate rates,
// advance flows, fire completions.
func (e *Engine) Step() {
	for _, a := range e.actors {
		a.Tick(e.now)
	}
	e.allocate()

	// Advance all flows and collect completions in deterministic (seq) order.
	var done []*Flow
	kept := e.flows[:0]
	for _, f := range e.flows {
		progress := f.rate * e.step
		if progress > f.Remaining {
			progress = f.Remaining
		}
		if progress > 0 {
			f.Remaining -= progress
			for _, d := range f.Demands {
				e.usage[d.Resource] += progress * d.Weight
			}
			if f.OnAdvance != nil {
				f.OnAdvance(progress)
			}
		}
		if f.Remaining <= 1e-9 {
			f.Remaining = 0
			f.active = false
			done = append(done, f)
		} else {
			kept = append(kept, f)
		}
	}
	// Zero the tail so aborted/done flows do not linger in the backing array.
	for i := len(kept); i < len(e.flows); i++ {
		e.flows[i] = nil
	}
	e.flows = kept

	// Derive now from the step count to avoid floating-point drift.
	e.steps++
	e.now = float64(e.steps) * e.step

	for _, f := range done {
		e.completed++
		if f.OnDone != nil {
			f.OnDone()
		}
	}
}

// Run steps the engine until virtual time reaches the given deadline.
func (e *Engine) Run(until Time) {
	for e.now < until {
		e.Step()
	}
}

// allocate computes a weighted max-min fair rate for every active flow via
// progressive filling: repeatedly find the resource (or per-flow cap) that
// saturates first if all unfrozen flows' rates rise uniformly, freeze the
// affected flows at that level, and continue.
func (e *Engine) allocate() {
	flows := e.flows
	if len(flows) == 0 {
		return
	}
	copy(e.residual, e.caps)
	unfrozen := 0
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		// A flow can consume at most Remaining/step this step; allocating
		// more would reserve capacity it cannot use and starve other flows
		// (near-complete flows would otherwise hog resources for a whole
		// step).
		f.effCap = f.Remaining / e.step
		if f.RateCap > 0 && f.RateCap < f.effCap {
			f.effCap = f.RateCap
		}
		unfrozen++
	}

	// load[r] = sum of weights of unfrozen flows on resource r.
	load := e.load
	for r := range load {
		load[r] = 0
	}
	for _, f := range flows {
		for _, d := range f.Demands {
			load[d.Resource] += d.Weight
		}
	}

	// Flows sorted by effective cap, ascending. Stable by seq.
	capped := e.cappedBuf[:0]
	capped = append(capped, flows...)
	sort.SliceStable(capped, func(i, j int) bool { return capped[i].effCap < capped[j].effCap })
	e.cappedBuf = capped[:0]
	nextCap := 0

	level := 0.0 // current uniform rate level of all unfrozen flows
	for unfrozen > 0 {
		// Headroom until the tightest resource saturates.
		limit := math.Inf(1)
		bottleneck := ResourceID(-1)
		for r := range e.residual {
			if load[r] <= 1e-12 {
				continue
			}
			l := level + e.residual[r]/load[r]
			if l < limit {
				limit = l
				bottleneck = ResourceID(r)
			}
		}
		// Headroom until the next per-flow cap binds.
		for nextCap < len(capped) && capped[nextCap].frozen {
			nextCap++
		}
		capLimit := math.Inf(1)
		if nextCap < len(capped) {
			capLimit = capped[nextCap].effCap
		}

		if capLimit <= limit {
			// Freeze every unfrozen flow whose cap is at this level.
			target := capLimit
			delta := target - level
			if delta < 0 {
				delta = 0
				target = level
			}
			e.drain(flows, load, delta)
			level = target
			for nextCap < len(capped) && capped[nextCap].effCap <= target+1e-12 {
				f := capped[nextCap]
				if !f.frozen {
					e.freeze(f, target, load)
					unfrozen--
				}
				nextCap++
			}
			continue
		}
		// A resource saturates: freeze all unfrozen flows that use it.
		delta := limit - level
		e.drain(flows, load, delta)
		level = limit
		for _, f := range flows {
			if f.frozen {
				continue
			}
			uses := false
			for _, d := range f.Demands {
				if d.Resource == bottleneck && d.Weight > 0 {
					uses = true
					break
				}
			}
			if uses {
				e.freeze(f, level, load)
				unfrozen--
			}
		}
		// Guard against numerical stalls: if nothing froze, freeze everything.
		if delta <= 1e-15 {
			stuck := true
			for _, f := range flows {
				if !f.frozen {
					for _, d := range f.Demands {
						if d.Resource == bottleneck && d.Weight > 0 {
							stuck = false
						}
					}
				}
			}
			if stuck {
				for _, f := range flows {
					if !f.frozen {
						e.freeze(f, level, load)
						unfrozen--
					}
				}
			}
		}
	}
}

// drain consumes residual capacity as all unfrozen flows rise by delta.
func (e *Engine) drain(flows []*Flow, load []float64, delta float64) {
	if delta <= 0 {
		return
	}
	for r := range e.residual {
		if load[r] > 0 {
			e.residual[r] -= delta * load[r]
			if e.residual[r] < 0 {
				e.residual[r] = 0
			}
		}
	}
}

// freeze fixes a flow's rate and removes its weights from the load vector.
func (e *Engine) freeze(f *Flow, rate float64, load []float64) {
	f.frozen = true
	f.rate = rate
	for _, d := range f.Demands {
		load[d.Resource] -= d.Weight
		if load[d.Resource] < 0 {
			load[d.Resource] = 0
		}
	}
}

package main

import (
	"fmt"

	"numacs/internal/core"
)

// driver is the benchmark's closed-loop client population: each client
// issues one statement and, when it completes or is shed, immediately issues
// the next. The statement itself comes from submit, which calls one of the
// engine's statement entry points; each such call is a span named callName
// in the traced run.
type driver struct {
	e        *core.Engine
	rec      *recorder
	clients  int
	callName string
	submit   func(client int, onDone func(latency float64), onShed func())

	// Counts since the start of the run; conservation checks them.
	issued, completed, shed uint64
	// openSince is each client's open statement's virtual issue time.
	openSince []float64

	// Measure-window counts and latencies (seconds, completion order).
	inWindow                         bool
	winIssued, winCompleted, winShed uint64
	lat                              []float64
}

func newDriver(e *core.Engine, rec *recorder, clients int, callName string) *driver {
	return &driver{e: e, rec: rec, clients: clients, callName: callName, openSince: make([]float64, clients)}
}

// start issues every client's first statement.
func (d *driver) start() {
	for c := 0; c < d.clients; c++ {
		d.issue(c)
	}
}

func (d *driver) issue(client int) {
	id := int64(d.issued)
	d.issued++
	if d.inWindow {
		d.winIssued++
	}
	d.openSince[client] = d.e.Sim.Now()
	sp := d.rec.beginCall(d.callName, id)
	d.submit(client,
		func(lat float64) {
			d.completed++
			if d.inWindow {
				d.winCompleted++
				d.lat = append(d.lat, lat)
			}
			d.issue(client)
		},
		func() {
			d.shed++
			if d.inWindow {
				d.winShed++
			}
			d.issue(client)
		})
	d.rec.endCall(sp)
}

// openWindow starts the measure window's counts.
func (d *driver) openWindow() {
	d.inWindow = true
	d.winIssued, d.winCompleted, d.winShed = 0, 0, 0
	d.lat = d.lat[:0]
}

// ledger is one conservation law at the horizon: every submitted unit was
// completed, shed, or is still in flight. InFlight must come from the layer
// that holds the work, not from the submitter's own counts, so a unit the
// engine dropped (or finished without telling the submitter) shows up.
type ledger struct {
	name                                 string
	submitted, completed, shed, inFlight int64
}

func (l ledger) check() error {
	if l.submitted != l.completed+l.shed+l.inFlight {
		return fmt.Errorf("%s: submitted %d != completed %d + shed %d + in flight %d",
			l.name, l.submitted, l.completed, l.shed, l.inFlight)
	}
	return nil
}

// closedLoopCheck verifies the closed-loop invariants of the driver at
// virtual time now: each client has exactly one statement open, and none has
// been open longer than maxAge (a statement the engine holds but will never
// finish).
func (d *driver) closedLoopCheck(now, maxAge float64) error {
	if open := d.issued - d.completed - d.shed; open != uint64(d.clients) {
		return fmt.Errorf("closed loop: %d statements open for %d clients", open, d.clients)
	}
	for c, since := range d.openSince {
		if now-since > maxAge {
			return fmt.Errorf("closed loop: client %d's statement open for %.3gs (> %.3gs)", c, now-since, maxAge)
		}
	}
	return nil
}

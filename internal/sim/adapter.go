package sim

// procAdapter runs a blocking-coroutine Proc on top of the event-driven
// handler kernel. The proc gets a private goroutine; the adapter's
// OnRound resumes it for one round and blocks until it parks again in
// Ctx.NextRound (or returns), so from the kernel's point of view the
// node is an ordinary inline handler. Both channels are buffered with
// capacity 1: every exchange is a strict ping-pong between the kernel
// side and the proc goroutine, and the buffer lets the kill wake-up in
// Shutdown's first phase proceed without waiting for each unwind in
// turn.
//
// Lifecycle (all transitions happen on the kernel side — in OnRound,
// stop, or interrupt — never concurrently for one node):
//
//	adapterNew    — no goroutine yet; started lazily by the first OnRound
//	adapterParked — goroutine alive, parked in NextRound (or about to be)
//	adapterDone   — goroutine exited (proc returned or was unwound)
type procAdapter struct {
	net    *Network
	proc   Proc
	resume chan []Message
	yield  chan bool
	// done is closed as the very last action of the proc goroutine —
	// after the final yield send — so retire can wait for the goroutine
	// to actually be gone. That makes AdapterGoroutines() == 0 a
	// deterministic barrier: once retire returns, the goroutine has
	// nothing left to execute, and tests need no wall-clock polling of
	// runtime.NumGoroutine.
	done  chan struct{}
	state uint8
	kill  bool // read by the proc goroutine after a resume receive
}

const (
	adapterNew uint8 = iota
	adapterParked
	adapterDone
)

// OnRound implements Handler by resuming the proc goroutine for one
// round. Returns false once the proc has returned.
func (a *procAdapter) OnRound(ctx *Ctx, inbox []Message) bool {
	if a.state == adapterNew {
		a.state = adapterParked
		a.resume = make(chan []Message, 1)
		a.yield = make(chan bool, 1)
		a.done = make(chan struct{})
		ctx.adapter = a
		a.net.adapterLive++
		go a.run(ctx)
	}
	a.resume <- inbox
	if <-a.yield {
		return true
	}
	a.retire()
	return false
}

// run is the proc goroutine: it waits for the node's first round (whose
// inbox is empty: nothing can have been sent to an id before it
// existed), runs the proc to completion, and converts the haltSignal
// unwind (a kill arriving at a NextRound park point) into a
// normal exit. The final yield <- false hands control back to whichever
// kernel-side call (OnRound or stop) is waiting.
func (a *procAdapter) run(ctx *Ctx) {
	// Deferred first, so it runs last (after the yield send below):
	// closing done publishes "this goroutine is gone" to retire.
	defer close(a.done)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(haltSignal); !ok {
				panic(r)
			}
		}
		a.yield <- false
	}()
	<-a.resume
	if a.kill {
		panic(haltSignal{})
	}
	a.proc(ctx)
}

// interrupt wakes a parked proc goroutine with the kill flag set and
// does not wait for the unwind (the buffered resume channel makes the
// send non-blocking). Shutdown uses it to overlap all unwinds before
// stop collects them.
func (a *procAdapter) interrupt() {
	if a.state != adapterParked {
		return
	}
	a.kill = true
	a.resume <- nil
}

// stop synchronously unwinds a parked proc goroutine; a no-op if it
// never started or already exited. Called from freeSlot: a reaped node's
// proc has returned, so only Shutdown, after interrupt, finds one
// parked.
func (a *procAdapter) stop() {
	if a.state != adapterParked {
		return
	}
	if !a.kill {
		a.kill = true
		a.resume <- nil
	}
	<-a.yield
	a.retire()
}

// retire waits for the proc goroutine to finish exiting, then marks it
// gone and updates the leak-audit counter. The wait is bounded: retire
// is only reached after the goroutine's final yield send, and close is
// its next (and last) action.
func (a *procAdapter) retire() {
	<-a.done
	a.state = adapterDone
	a.net.adapterLive--
}

package reliable

import "testing"

// retained counts the per-message entries an endpoint holds: arrivals
// buffered for the next boundary and envelopes awaiting their ack or
// the scan that sweeps them. There is no other per-message state — in
// particular nothing that remembers a delivered envelope.
func (e *Endpoint) retained() int { return len(e.buf) + len(e.pending) }

// stalePayloads counts the references an endpoint holds outside the
// live part of its buffers, up to capacity: payloads of a phase already
// handed to the protocol, envelopes already acked or failed.
func (e *Endpoint) stalePayloads() int {
	k := 0
	for _, b := range e.buf[len(e.buf):cap(e.buf)] {
		if b.msg.Payload != nil {
			k++
		}
	}
	for _, m := range e.out[len(e.out):cap(e.out)] {
		if m.Payload != nil {
			k++
		}
	}
	for _, p := range e.pending[len(e.pending):cap(e.pending)] {
		if p.env != nil {
			k++
		}
	}
	return k
}

// TestEndpointStateBounded: what an endpoint retains is a function of
// the traffic in flight, not of how long it has been running. A wrapped
// flood under spread and drops is measured over its last five phases
// after 40 and after 400: the peak (≈ 1200 entries either time, ± 10 %)
// must not have grown — the per-sender dedup maps this replaced held
// one entry per envelope ever received, 9× more at 400. Between rounds no buffer keeps a payload of a phase
// that is over.
func TestEndpointStateBounded(t *testing.T) {
	net, eps, stretch := floodNet(t, 64, "uniform:1,3", 0.05)
	defer net.Shutdown()
	peak := func(fromPhase, toPhase int) (max int) {
		net.Run(fromPhase*stretch - net.Round())
		for net.Round() < toPhase*stretch {
			net.Step()
			sum := 0
			for _, e := range eps {
				sum += e.retained()
				if k := e.stalePayloads(); k != 0 {
					t.Fatalf("round %d: %d stale references beyond the live buffers", net.Round(), k)
				}
			}
			if sum > max {
				max = sum
			}
		}
		return max
	}
	early, late := peak(35, 40), peak(395, 400)
	if early == 0 {
		t.Fatal("nothing retained under load: the probe is blind")
	}
	if late > early*3/2 {
		t.Fatalf("retained state grew with run length: peak %d entries around phase 40, %d around phase 400", early, late)
	}
}

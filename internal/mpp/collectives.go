package mpp

import "errors"

// Collectives. Each collective follows the same lock-free exchange
// protocol over the world's shared slots: every rank writes its own
// slot (disjoint indices, no lock needed), a barrier publishes the
// writes, every rank reads what it needs, and a trailing barrier
// guarantees all reads completed before any slot is reused by the next
// collective. Virtual-clock synchronization and network latency are
// charged by the barriers; data-volume cost is charged by the sender.

// AllGather gathers one value from every rank; the result slice is
// indexed by rank id and identical on all ranks.
func AllGather[T any](r *Rank, v T) ([]T, error) {
	w := r.w
	w.slots[r.id] = v
	r.chargeXfer(1)
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	out := make([]T, len(w.slots))
	for i, s := range w.slots {
		out[i] = s.(T)
	}
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// AllGatherSlice gathers a variable-length slice from every rank.
// Result is indexed by rank id. The contributed slices must not be
// mutated after the call on any rank.
func AllGatherSlice[T any](r *Rank, v []T) ([][]T, error) {
	w := r.w
	w.slots[r.id] = v
	r.chargeXfer(len(v))
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	out := make([][]T, len(w.slots))
	for i, s := range w.slots {
		out[i] = s.([]T)
	}
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// AllToAll performs a personalized exchange: send[i] goes to rank i,
// and the returned recv[i] is what rank i sent to this rank. len(send)
// must equal the world size. Sent slices must not be mutated after the
// call.
func AllToAll[T any](r *Rank, send [][]T) ([][]T, error) {
	w := r.w
	p := r.Size()
	if len(send) != p {
		return nil, errSendLen
	}
	total := 0
	for dst := 0; dst < p; dst++ {
		w.mat[r.id][dst] = send[dst]
		if dst != r.id {
			total += len(send[dst])
		}
	}
	r.chargeXfer(total)
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	recv := make([][]T, p)
	for src := 0; src < p; src++ {
		if cell := w.mat[src][r.id]; cell != nil {
			recv[src] = cell.([]T)
		}
	}
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	return recv, nil
}

// AllGatherSized gathers one arbitrarily sized value from every rank,
// charging elems(v) logical elements to the network model — the
// columnar engine's batch replication primitive. Charging a batch's
// row count keeps the communication accounting identical to gathering
// the same rows through AllGatherSlice. The contributed values must
// not be mutated after the call on any rank.
func AllGatherSized[T any](r *Rank, v T, elems func(T) int) ([]T, error) {
	w := r.w
	w.slots[r.id] = v
	r.chargeXfer(elems(v))
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	out := make([]T, len(w.slots))
	for i, s := range w.slots {
		out[i] = s.(T)
	}
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// GatherRoot gathers one arbitrarily sized value from every rank onto
// root, has root alone turn the parts into a result with build, and
// hands that one result to every rank — the engine's result path:
// the answer is concatenated and finished once, not once per rank.
//
// The simulated machine cannot tell this from an all-gather followed by
// build on every rank. Every rank publishes its part and charges its
// own transfer as in AllGatherSized, and the collective is the same two
// barriers, so the communication ledger is unchanged. build runs on
// root between the barriers (it must not enter a collective); what it
// charges is queued, not applied, and after the closing barrier every
// rank, root included, applies the queue in order to the phases it was
// charged in — the very additions, in the very order, each rank's clock
// made when each rank ran build itself. The parts, and a result that
// references them, must not be mutated after the call on any rank.
func GatherRoot[T, R any](r *Rank, root int, v T, elems func(T) int, build func(parts []T) (R, error)) (R, error) {
	w := r.w
	w.slots[r.id] = v
	r.chargeXfer(elems(v))
	var zero R
	if err := r.Barrier(); err != nil {
		return zero, err
	}
	if r.id == root {
		parts := make([]T, len(w.slots))
		for i, s := range w.slots {
			parts[i] = s.(T)
		}
		var held []heldCharge
		r.held = &held
		out, err := build(parts)
		r.held, r.heldVT = nil, 0
		if err != nil {
			// Returning aborts the world (RunCtx), releasing the ranks
			// parked on the closing barrier.
			return zero, err
		}
		// Only root writes pub, and only here: the next GatherRoot's
		// opening barrier cannot complete before every rank has read
		// this one's result below.
		w.pub = gathered{out: out, held: held}
	}
	if err := r.Barrier(); err != nil {
		return zero, err
	}
	for _, c := range w.pub.held {
		r.vt += c.d
		r.acc[c.phase] += c.d
	}
	out, _ := w.pub.out.(R) // a nil interface result asserts to R's zero value
	return out, nil
}

// AllToAllSized performs a personalized exchange of arbitrarily sized
// values: send[i] goes to rank i, and recv[i] is what rank i sent to
// this rank. The sender is charged elems(send[i]) logical elements for
// every off-rank destination, mirroring AllToAll's per-row charging so
// a batch exchange costs exactly what the equivalent row exchange
// does. Sent values must not be mutated after the call.
func AllToAllSized[T any](r *Rank, send []T, elems func(T) int) ([]T, error) {
	w := r.w
	p := r.Size()
	if len(send) != p {
		return nil, errSendLen
	}
	// The whole send vector is published through the rank's slot as ONE
	// interface box; receivers index into it. Boxing each destination
	// cell into the exchange matrix cost p allocations per rank per
	// collective (p² per exchange world-wide) on the columnar hot path.
	w.slots[r.id] = send
	total := 0
	for dst := 0; dst < p; dst++ {
		if dst != r.id {
			total += elems(send[dst])
		}
	}
	r.chargeXfer(total)
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	recv := make([]T, p)
	for src := 0; src < p; src++ {
		if row := w.slots[src]; row != nil {
			recv[src] = row.([]T)[r.id]
		}
	}
	if err := r.Barrier(); err != nil {
		return nil, err
	}
	return recv, nil
}

// errSendLen is AllToAll's answer to a send vector whose length is not
// the world size.
var errSendLen = errors.New("mpp: AllToAll send has wrong length")

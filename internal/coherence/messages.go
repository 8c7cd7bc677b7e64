// Package coherence implements the cache coherence layer of the
// simulator: a MESI directory protocol with 3-hop read transactions and
// Unblock (the GEMS baseline of the paper), extended with the paper's
// WritersBlock mechanism — Nacks from cores holding lockdowns, the
// WritersBlock transient directory state that blocks writes while serving
// reads with uncacheable tear-off data, redirected invalidation
// acknowledgements, blocked-write hints, and eviction-buffer handling of
// WritersBlock directory entries.
//
// The package contains two controllers:
//
//   - Bank: an LLC bank with its directory slice (one per tile).
//   - PCU: a core's private cache unit (L1+L2 as a single coherence
//     point, with L1 modelled as a presence/latency filter).
//
// Both are network endpoints and communicate only via messages.
package coherence

import (
	"fmt"

	"wbsim/internal/mem"
	"wbsim/internal/network"
)

// MsgType enumerates the protocol messages.
type MsgType int

// Protocol messages. The virtual network used by each type is fixed (see
// vnetOf), matching the three-VNet split in GEMS: requests, forwards,
// responses.
const (
	// Requests: core -> directory (VNetRequest).
	MsgGetS    MsgType = iota // read miss (load)
	MsgGetX                   // write miss (store or atomic); Upgrade when the requester holds S
	MsgPutM                   // eviction of a dirty owned line, carries data
	MsgPutE                   // eviction of a clean exclusive line
	MsgPutS                   // owned-line eviction under a lockdown: downgrade, stay a sharer (Section 3.8)
	MsgPutSh                  // non-silent eviction of a shared line: leave the sharer list (Section 3.8 baseline alternative)
	MsgRetryRd                // re-issued read of an ordered load after a tear-off it could not use

	// Forwards: directory -> core (VNetForward).
	MsgInv     // invalidate; Requester = writer to ack (or the bank itself for evictions)
	MsgFwdGetS // forward read to the exclusive owner
	MsgFwdGetX // forward write to the exclusive owner

	// Responses (VNetResponse).
	MsgData        // data grant, shared
	MsgDataExcl    // data grant with write permission; AckCount acks still outstanding
	MsgTearoff     // uncacheable tear-off data (WritersBlock read, Section 3.4)
	MsgInvAck      // sharer -> writer: invalidation acknowledged
	MsgNack        // sharer -> directory: invalidation hit a lockdown (may carry data)
	MsgDelayedAck  // core -> directory: a lockdown with a pending invalidation lifted
	MsgRedirAck    // directory -> writer: redirected invalidation ack (Figure 3.B steps 4-5)
	MsgOwnerData   // owner -> directory: clean copy on downgrade
	MsgUnblock     // requester -> directory: transaction complete
	MsgPutAck      // directory -> core: eviction acknowledged
	MsgBlockedHint // directory -> writer: your write is blocked behind a WritersBlock (Section 3.5.2)
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgGetS:
		return "GetS"
	case MsgGetX:
		return "GetX"
	case MsgPutM:
		return "PutM"
	case MsgPutE:
		return "PutE"
	case MsgPutS:
		return "PutS"
	case MsgPutSh:
		return "PutSh"
	case MsgRetryRd:
		return "RetryRd"
	case MsgInv:
		return "Inv"
	case MsgFwdGetS:
		return "FwdGetS"
	case MsgFwdGetX:
		return "FwdGetX"
	case MsgData:
		return "Data"
	case MsgDataExcl:
		return "DataExcl"
	case MsgTearoff:
		return "Tearoff"
	case MsgInvAck:
		return "InvAck"
	case MsgNack:
		return "Nack"
	case MsgDelayedAck:
		return "DelayedAck"
	case MsgRedirAck:
		return "RedirAck"
	case MsgOwnerData:
		return "OwnerData"
	case MsgUnblock:
		return "Unblock"
	case MsgPutAck:
		return "PutAck"
	case MsgBlockedHint:
		return "BlockedHint"
	}
	return fmt.Sprintf("Msg(%d)", int(t))
}

// Msg is the protocol payload carried by a network message.
type Msg struct {
	Type      MsgType
	Line      mem.Line
	Src       network.Endpoint // sender
	Requester network.Endpoint // original requester of the transaction
	Data      mem.LineData
	HasData   bool
	AckCount  int  // MsgDataExcl: invalidation acks the writer must collect
	Excl      bool // MsgData with exclusivity (MESI E grant)
	Eviction  bool // MsgInv caused by a directory eviction (no writer)
	Atomic    bool // MsgGetX issued for an atomic RMW
	Upgrade   bool // MsgGetX from a core that still holds a shared copy
	Stale     bool // MsgPutAck for a Put that lost a race with a forward

	// Lease is the absolute expiry cycle of a tardis read lease, stamped
	// on shared MsgData grants by the granting side (directory or
	// forwarded owner). Zero on every other message. It is a cycle
	// stamp, so the model checker excludes it from message fingerprints.
	Lease simCycle
}

// vnetOf maps each message type to its virtual network.
func vnetOf(t MsgType) network.VNet {
	//wbsim:partial -- every type not named is a response; the default is the response VNet by design
	switch t {
	case MsgGetS, MsgGetX, MsgPutM, MsgPutE, MsgPutS, MsgPutSh, MsgRetryRd:
		return network.VNetRequest
	case MsgInv, MsgFwdGetS, MsgFwdGetX:
		return network.VNetForward
	default:
		return network.VNetResponse
	}
}

// carriesData reports whether the message needs data-sized flits.
func carriesData(m *Msg) bool { return m.HasData }

// deferredKind names what a scheduled PCU or bank event does when it
// fires. Each component fires only its own kinds.
type deferredKind uint8

const (
	dfPCUSend       deferredKind = iota // PCU: send m to dst
	dfPCULease                          // PCU: the lease on line, armed for expiry, lapses (tardis)
	dfBankSend                          // bank: send m to dst
	dfBankRetry                         // bank: re-enter m, a write a full directory turned away
	dfBankFetchDone                     // bank: the memory fetch for line lands
	dfBankRequeue                       // bank: re-enter m, orphaned by a completed eviction
	dfBankLease                         // bank: the lease timer of line fires (tardis)
)

// deferred is one scheduled action of a PCU or bank, held by value in
// its event queue: a send carries its message, a timer or fetch names
// its line. It holds no pointer, so the model checker copies a queue
// as a slice and folds each pending event into the state fingerprint
// from these fields alone.
type deferred struct {
	kind   deferredKind
	dst    network.Endpoint // send destination
	line   mem.Line         // fetch and lease targets
	expiry simCycle         // dfPCULease: the stamp the timer was armed for
	m      Msg              // sent or re-entered message
}

// envelope is one message on the mesh: the network envelope, the
// protocol body it carries, and the free list of the component that
// sent it. The envelope is its own payload, so a receiver tells it from
// a bare *Msg by type (msgOf).
type envelope struct {
	env  network.Message
	m    Msg
	home *envelopes // the sender's free list
}

// envelopes is a component's free list of envelopes. send takes one
// from the sending component's list, and the receiving PCU or bank
// returns it there once its Receive is done with the body, so a machine
// allocates envelopes only until it has as many as it ever keeps in
// flight. Not the mesh: a scripted test peer keeps the bodies it is
// delivered, so only a receiver knows when a body is dead. Every
// component of one machine runs on one goroutine, so the list needs no
// lock.
type envelopes []*envelope

// send stamps m with its source and injects it into port in an envelope
// from l. The model checker's port copies the message into a flight
// instead, so it gets none.
func (l *envelopes) send(port network.Port, now simCycle, src, dst network.Endpoint, m *Msg, dataFlits, ctrlFlits int) {
	m.Src = src
	flits := ctrlFlits
	if carriesData(m) {
		flits = dataFlits
	}
	env := network.Message{Src: src, Dst: dst, VNet: vnetOf(m.Type), Flits: flits}
	if mp, ok := port.(modelPort); ok {
		mp.put(env, m)
		return
	}
	var e *envelope
	if n := len(*l); n > 0 {
		e = (*l)[n-1]
		*l = (*l)[:n-1]
	} else {
		e = &envelope{home: l}
	}
	e.env, e.m = env, *m
	e.env.Payload = e
	port.Send(now, &e.env)
}

// msgOf returns the protocol body of a delivered message and the
// envelope send made for it. A message that did not come from send (a
// model-checker flight, a test's hand-built message) carries a bare
// *Msg, and the envelope is nil.
func msgOf(nm *network.Message) (*Msg, *envelope) {
	if e, ok := nm.Payload.(*envelope); ok {
		return &e.m, e
	}
	return nm.Payload.(*Msg), nil
}

// release returns e to its sender's free list (a no-op on nil). The
// receiver calls it last: the next send may overwrite the body.
func (e *envelope) release() {
	if e != nil {
		*e.home = append(*e.home, e)
	}
}

// panicf reports a protocol-invariant violation. Handlers call this
// instead of inlining panic(fmt.Sprintf(...)) so the formatting code and
// its argument boxing stay out-of-line from the per-message hot paths and
// run only when an invariant actually fails.
//
//go:noinline
func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

package coherence

import (
	"slices"

	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// The directory's transition table dispatches on a *derived* state: the
// stored representation (dirKind + dirTxn) is unchanged, but for dispatch
// the Busy and WB kinds split by transaction role, because the legal
// event set differs between a read grant, a write, and an eviction. The
// split is exactly the distinction SLICC states make explicit and the old
// nested switches kept implicit in txn-field tests.
type dirState int

const (
	dirStNoEntry     dirState = iota // no directory entry (live or evicting)
	dirStInvalid                     // entry with no sharers or owner
	dirStShared                      // ≥1 sharer
	dirStExclusive                   // single owner (MESI E/M)
	dirStFetching                    // memory fetch in flight
	dirStBusyShared                  // shared read grant awaiting Unblock
	dirStBusyExcl                    // exclusive read grant awaiting Unblock
	dirStBusyWrite                   // write transaction in flight
	dirStBusyEvict                   // directory eviction collecting InvAcks
	dirStWBWrite                     // WritersBlock: write blocked by lockdowns
	dirStWBEvict                     // WritersBlock: eviction blocked by lockdowns
	dirStTsShared                    // tardis: leased shared copies, no sharer list
	dirStTsWaitWrite                 // tardis: write parked until every lease expires
	dirStTsWaitEvict                 // tardis: eviction parked until every lease expires
	numDirStates
)

var dirStateNames = [numDirStates]string{
	"NoEntry", "I", "S", "E", "Fetch", "BusyS", "BusyE", "BusyW", "BusyEv", "WBW", "WBEv",
	"TsS", "TsWaitW", "TsWaitEv",
}

func (s dirState) String() string { return dirStateNames[s] }

// dirStateOf derives the dispatch state from a directory entry.
func dirStateOf(dl *dirLine) dirState {
	if dl == nil {
		return dirStNoEntry
	}
	switch dl.kind {
	case dirInvalid:
		return dirStInvalid
	case dirShared:
		return dirStShared
	case dirExclusive:
		return dirStExclusive
	case dirFetching:
		return dirStFetching
	case dirBusy:
		txn := &dl.txn
		if !dl.hasTxn {
			panicf("dir: Busy line %v without transaction", dl.line)
		}
		switch {
		case txn.eviction:
			return dirStBusyEvict
		case txn.write:
			return dirStBusyWrite
		case txn.grantExcl:
			return dirStBusyExcl
		}
		return dirStBusyShared
	case dirWB:
		txn := &dl.txn
		if !dl.hasTxn {
			panicf("dir: WB line %v without transaction", dl.line)
		}
		if txn.eviction {
			return dirStWBEvict
		}
		return dirStWBWrite
	case dirTsShared:
		txn := &dl.txn
		if !dl.hasTxn {
			return dirStTsShared
		}
		if txn.eviction {
			return dirStTsWaitEvict
		}
		if txn.write {
			return dirStTsWaitWrite
		}
		panicf("dir: TsShared line %v with a non-write, non-eviction transaction", dl.line)
	}
	panicf("dir: line %v in unknown kind %d", dl.line, int(dl.kind))
	return dirStNoEntry
}

// dirEvent is the directory's table event space: message types collapsed
// to protocol events (retried reads are reads; the three owned-line Puts
// share handling).
type dirEvent int

const (
	dirEvRead         dirEvent = iota // GetS, RetryRd
	dirEvWrite                        // GetX
	dirEvPutOwned                     // PutM, PutE, PutS
	dirEvPutShared                    // PutSh (non-silent shared eviction)
	dirEvInvAck                       // eviction-invalidation acknowledgement
	dirEvNack                         // lockdown refused an invalidation
	dirEvDelayedAck                   // lifted lockdown's deferred acknowledgement
	dirEvOwnerData                    // owner's clean copy on a read downgrade
	dirEvUnblock                      // requester finished a transaction
	dirEvLeaseExpired                 // tardis lease timer fired (local, not a network message)
	numDirEvents
)

var dirEventNames = [numDirEvents]string{
	"Read", "Write", "PutOwned", "PutSh", "InvAck", "Nack", "DelayedAck", "OwnerData", "Unblock",
	"LeaseExpired",
}

func (e dirEvent) String() string { return dirEventNames[e] }

// dirEventOf maps a bank-directed message type to its table event.
func dirEventOf(t MsgType) dirEvent {
	//wbsim:partial(MsgInv, MsgFwdGetS, MsgFwdGetX, MsgData, MsgDataExcl, MsgTearoff, MsgRedirAck, MsgPutAck, MsgBlockedHint) -- core-directed messages never reach a bank; the default panic enforces it
	switch t {
	case MsgGetS, MsgRetryRd:
		return dirEvRead
	case MsgGetX:
		return dirEvWrite
	case MsgPutM, MsgPutE, MsgPutS:
		return dirEvPutOwned
	case MsgPutSh:
		return dirEvPutShared
	case MsgInvAck:
		return dirEvInvAck
	case MsgNack:
		return dirEvNack
	case MsgDelayedAck:
		return dirEvDelayedAck
	case MsgOwnerData:
		return dirEvOwnerData
	case MsgUnblock:
		return dirEvUnblock
	default:
		panicf("dir: unexpected %v", t)
	}
	return 0
}

// dirAction is one table row's behavior. dl is the entry find() resolved
// for the message's line (nil in NoEntry rows).
type dirAction func(b *Bank, dl *dirLine, m *Msg)

// dirFlavor selects which composed machine a bank runs: the WritersBlock
// delta is layered in under lockdown cores, the non-silent-eviction delta
// when PutSh traffic exists, and a small glue delta for their overlap.
type dirFlavor int

const (
	dirFlavorBase dirFlavor = iota
	dirFlavorBaseNS
	dirFlavorWB
	dirFlavorWBNS
	dirFlavorTardis
	numDirFlavors
)

// dirFlavorFor picks the machine flavor from the protocol mode and the
// eviction-notification parameter. Tardis forbids non-silent shared
// evictions (registry-validated): a leased copy leaves by expiring, so
// there is no list to leave and PutSh never exists.
func dirFlavorFor(mode Mode, nonSilent bool) dirFlavor {
	if mode == ModeTardis {
		return dirFlavorTardis
	}
	if mode == ModeLockdown {
		if nonSilent {
			return dirFlavorWBNS
		}
		return dirFlavorWB
	}
	if nonSilent {
		return dirFlavorBaseNS
	}
	return dirFlavorBase
}

// Row constructors: handled, nacked (refusal with a reason), impossible.
func dh(s dirState, e dirEvent, do dirAction) table.Row[dirAction] {
	return table.Row[dirAction]{State: int(s), Event: int(e), Kind: table.Handled, Do: do}
}

func dn(s dirState, e dirEvent, why string, do dirAction) table.Row[dirAction] {
	return table.Row[dirAction]{State: int(s), Event: int(e), Kind: table.Nacked, Why: why, Do: do}
}

func dx(s dirState, e dirEvent, why string) table.Row[dirAction] {
	return table.Row[dirAction]{State: int(s), Event: int(e), Kind: table.Impossible, Why: why}
}

// dirBaseSpec is the squash-mode MESI directory: no lockdowns exist, so
// the WritersBlock states and the Nack/DelayedAck events are declared
// dead, and silent shared evictions mean PutSh never arrives.
func dirBaseSpec() table.Spec[dirAction] {
	const (
		whyWBDead   = "WritersBlock states exist only under lockdown cores (wb delta)"
		whyNackDead = "squash cores acknowledge every invalidation immediately; Nacks exist only under lockdown (wb delta)"
		whyDlyDead  = "DelayedAcks answer Nacks, which exist only under lockdown (wb delta)"
		whyPutSh    = "PutSh is sent only with NonSilentSharedEvictions (ns delta)"
		whyInvAck   = "InvAcks flow to the requesting core; only eviction invalidations name the bank, and those land in an eviction transaction"
		whyOwnData  = "owners send OwnerData only while the directory waits on a forwarded read"
		whyUnblock  = "Unblock always lands in the read or write transaction that granted the line"
	)
	// Effect shorthands shared by several rows of this spec.
	fxQueueFetch := table.Effects{} // parked on a memory timer, not a network
	fxQueueBusy := fxParked("queued until the transaction's responses land")
	fxAlloc := func(read bool) table.Effects {
		fx := table.Effects{
			Next:     dStates(dirStNoEntry, dirStFetching),
			Acquires: []int{dirResEvBuf},
			Sends: []table.Send{
				maybe(toCore(pcuEvInv, table.DestSharers, pcuAllStates...), "victim eviction invalidates its sharers"),
				maybe(toCore(pcuEvInv, table.DestOwner, pcuAllStates...), "victim eviction invalidates its owner"),
			},
		}
		if read {
			fx.Sends = append(fx.Sends,
				maybe(toCore(pcuEvTearoff, table.DestRequester, pcuRdStates...), "eviction buffer full: read served uncacheably from memory"))
		} else {
			fx.Sends = append(fx.Sends,
				maybe(toCore(pcuEvHint, table.DestRequester, pcuAllStates...), "eviction buffer full: write hinted, then retried after backoff"))
		}
		return fx
	}

	rows := []table.Row[dirAction]{
		// Reads: never blocked; transients queue, WritersBlock (delta)
		// serves tear-offs.
		dh(dirStNoEntry, dirEvRead, dirActAlloc).With(fxAlloc(true)),
		dh(dirStInvalid, dirEvRead, dirActReadGrantExcl).With(table.Effects{
			Next:  dStates(dirStBusyExcl),
			Sends: []table.Send{toCore(pcuEvData, table.DestRequester, pcuRdStates...)},
		}),
		dh(dirStShared, dirEvRead, dirActReadGrantShared).With(table.Effects{
			Next:  dStates(dirStBusyShared),
			Sends: []table.Send{toCore(pcuEvData, table.DestRequester, pcuRdStates...)},
		}),
		dh(dirStExclusive, dirEvRead, dirActReadFwd).With(table.Effects{
			Next:  dStates(dirStBusyShared),
			Sends: []table.Send{toCore(pcuEvFwdGetS, table.DestOwner, pcuAllStates...)},
		}),
		dh(dirStFetching, dirEvRead, dirActQueue).With(fxQueueFetch),
		dh(dirStBusyShared, dirEvRead, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyExcl, dirEvRead, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyWrite, dirEvRead, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyEvict, dirEvRead, dirActQueue).With(fxQueueBusy),
		dx(dirStWBWrite, dirEvRead, whyWBDead),
		dx(dirStWBEvict, dirEvRead, whyWBDead),

		// Writes.
		dh(dirStNoEntry, dirEvWrite, dirActAlloc).With(fxAlloc(false)),
		dh(dirStInvalid, dirEvWrite, dirActWriteGrant).With(table.Effects{
			Next:  dStates(dirStBusyWrite),
			Sends: []table.Send{toCore(pcuEvDataExcl, table.DestRequester, pcuWrStates...)},
		}),
		dh(dirStShared, dirEvWrite, dirActWriteInvalidate).With(table.Effects{
			Next: dStates(dirStBusyWrite),
			Sends: []table.Send{
				maybe(toCore(pcuEvInv, table.DestSharers, pcuAllStates...), "every sharer except the writer"),
				toCore(pcuEvDataExcl, table.DestRequester, pcuWrStates...),
			},
		}),
		dh(dirStExclusive, dirEvWrite, dirActWriteFwd).With(table.Effects{
			Next:  dStates(dirStBusyWrite),
			Sends: []table.Send{toCore(pcuEvFwdGetX, table.DestOwner, pcuAllStates...)},
		}),
		dh(dirStFetching, dirEvWrite, dirActQueue).With(fxQueueFetch),
		dh(dirStBusyShared, dirEvWrite, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyExcl, dirEvWrite, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyWrite, dirEvWrite, dirActQueue).With(fxQueueBusy),
		dh(dirStBusyEvict, dirEvWrite, dirActQueue).With(fxQueueBusy),
		dx(dirStWBWrite, dirEvWrite, whyWBDead),
		dx(dirStWBEvict, dirEvWrite, whyWBDead),

		// Owned-line writebacks: only an Exclusive entry naming the sender
		// as owner accepts; every other state means the Put lost a race
		// with a forward or an eviction and is acknowledged stale — except
		// a Put from a Busy transaction's own requester, which merely
		// overtook its own Unblock on the request network and must wait
		// for it (a stale ack there would promise a forward that is not
		// coming, stranding the core's writeback buffer).
		dn(dirStNoEntry, dirEvPutOwned, "put raced the directory eviction that dropped the entry", dirActPutStale).With(fxPutStale()),
		dn(dirStInvalid, dirEvPutOwned, "ownership already returned; duplicate or reordered put", dirActPutStale).With(fxPutStale()),
		dn(dirStShared, dirEvPutOwned, "put lost a race with a read downgrade; the forward was served from the writeback buffer", dirActPutStale).With(fxPutStale()),
		dh(dirStExclusive, dirEvPutOwned, dirActPutOwned).With(table.Effects{
			// PutM/PutE return the line (Invalid); a lockdown's PutS
			// downgrades in place (Shared); a put from a non-owner is
			// acked stale with the entry untouched (Exclusive).
			Next:           dStates(dirStInvalid, dirStShared, dirStExclusive),
			ThenRedispatch: true,
			Sends:          []table.Send{toCore(pcuEvPutAck, table.DestRequester, pcuAllStates...)},
		}),
		dn(dirStFetching, dirEvPutOwned, "entry was evicted and refetched while the put was in flight", dirActPutStale).With(fxPutStale()),
		dn(dirStBusyShared, dirEvPutOwned, "put lost a race with an in-flight read forward", dirActPutStale).With(fxPutStale()),
		dh(dirStBusyExcl, dirEvPutOwned, dirActPutRace).With(table.Effects{
			Sends:  []table.Send{maybe(toCore(pcuEvPutAck, table.DestRequester, pcuAllStates...), "a put from any core but the requester is acked stale")},
			Blocks: &table.Block{Net: int(network.VNetResponse), Note: "the requester's own put waits for its overtaken Unblock"},
		}),
		dh(dirStBusyWrite, dirEvPutOwned, dirActPutRace).With(table.Effects{
			Sends:  []table.Send{maybe(toCore(pcuEvPutAck, table.DestRequester, pcuAllStates...), "a put from any core but the requester is acked stale")},
			Blocks: &table.Block{Net: int(network.VNetResponse), Note: "the requester's own put waits for its overtaken Unblock"},
		}),
		dn(dirStBusyEvict, dirEvPutOwned, "put crossed the eviction invalidation on the unordered network", dirActPutStale).With(fxPutStale()),
		dx(dirStWBWrite, dirEvPutOwned, whyWBDead),
		dx(dirStWBEvict, dirEvPutOwned, whyWBDead),

		// Non-silent shared evictions: dead event in the base machine.
		dx(dirStNoEntry, dirEvPutShared, whyPutSh),
		dx(dirStInvalid, dirEvPutShared, whyPutSh),
		dx(dirStShared, dirEvPutShared, whyPutSh),
		dx(dirStExclusive, dirEvPutShared, whyPutSh),
		dx(dirStFetching, dirEvPutShared, whyPutSh),
		dx(dirStBusyShared, dirEvPutShared, whyPutSh),
		dx(dirStBusyExcl, dirEvPutShared, whyPutSh),
		dx(dirStBusyWrite, dirEvPutShared, whyPutSh),
		dx(dirStBusyEvict, dirEvPutShared, whyPutSh),
		dx(dirStWBWrite, dirEvPutShared, whyPutSh),
		dx(dirStWBEvict, dirEvPutShared, whyPutSh),

		// Eviction-invalidation acks.
		dx(dirStNoEntry, dirEvInvAck, whyInvAck),
		dx(dirStInvalid, dirEvInvAck, whyInvAck),
		dx(dirStShared, dirEvInvAck, whyInvAck),
		dx(dirStExclusive, dirEvInvAck, whyInvAck),
		dx(dirStFetching, dirEvInvAck, whyInvAck),
		dx(dirStBusyShared, dirEvInvAck, whyInvAck),
		dx(dirStBusyExcl, dirEvInvAck, whyInvAck),
		dx(dirStBusyWrite, dirEvInvAck, whyInvAck),
		dh(dirStBusyEvict, dirEvInvAck, dirActEvictionAck).With(table.Effects{
			Next:     dStates(dirStBusyEvict, dirStNoEntry),
			Releases: []int{dirResEvBuf},
		}),
		dx(dirStWBWrite, dirEvInvAck, whyWBDead),
		dx(dirStWBEvict, dirEvInvAck, whyWBDead),

		// Nacks: dead event in the base machine.
		dx(dirStNoEntry, dirEvNack, whyNackDead),
		dx(dirStInvalid, dirEvNack, whyNackDead),
		dx(dirStShared, dirEvNack, whyNackDead),
		dx(dirStExclusive, dirEvNack, whyNackDead),
		dx(dirStFetching, dirEvNack, whyNackDead),
		dx(dirStBusyShared, dirEvNack, whyNackDead),
		dx(dirStBusyExcl, dirEvNack, whyNackDead),
		dx(dirStBusyWrite, dirEvNack, whyNackDead),
		dx(dirStBusyEvict, dirEvNack, whyNackDead),
		dx(dirStWBWrite, dirEvNack, whyNackDead),
		dx(dirStWBEvict, dirEvNack, whyNackDead),

		// DelayedAcks: dead event in the base machine.
		dx(dirStNoEntry, dirEvDelayedAck, whyDlyDead),
		dx(dirStInvalid, dirEvDelayedAck, whyDlyDead),
		dx(dirStShared, dirEvDelayedAck, whyDlyDead),
		dx(dirStExclusive, dirEvDelayedAck, whyDlyDead),
		dx(dirStFetching, dirEvDelayedAck, whyDlyDead),
		dx(dirStBusyShared, dirEvDelayedAck, whyDlyDead),
		dx(dirStBusyExcl, dirEvDelayedAck, whyDlyDead),
		dx(dirStBusyWrite, dirEvDelayedAck, whyDlyDead),
		dx(dirStBusyEvict, dirEvDelayedAck, whyDlyDead),
		dx(dirStWBWrite, dirEvDelayedAck, whyDlyDead),
		dx(dirStWBEvict, dirEvDelayedAck, whyDlyDead),

		// Owner's clean copy on a read downgrade.
		dx(dirStNoEntry, dirEvOwnerData, whyOwnData),
		dx(dirStInvalid, dirEvOwnerData, whyOwnData),
		dx(dirStShared, dirEvOwnerData, whyOwnData),
		dx(dirStExclusive, dirEvOwnerData, whyOwnData),
		dx(dirStFetching, dirEvOwnerData, whyOwnData),
		dh(dirStBusyShared, dirEvOwnerData, dirActOwnerData).With(table.Effects{
			Next:           dStates(dirStBusyShared, dirStShared),
			ThenRedispatch: true,
		}),
		dx(dirStBusyExcl, dirEvOwnerData, whyOwnData),
		dx(dirStBusyWrite, dirEvOwnerData, "owners answer FwdGetX with DataExcl to the writer, never OwnerData"),
		dx(dirStBusyEvict, dirEvOwnerData, whyOwnData),
		dx(dirStWBWrite, dirEvOwnerData, whyWBDead),
		dx(dirStWBEvict, dirEvOwnerData, whyWBDead),

		// Transaction completion.
		dx(dirStNoEntry, dirEvUnblock, whyUnblock),
		dx(dirStInvalid, dirEvUnblock, whyUnblock),
		dx(dirStShared, dirEvUnblock, whyUnblock),
		dx(dirStExclusive, dirEvUnblock, whyUnblock),
		dx(dirStFetching, dirEvUnblock, whyUnblock),
		dh(dirStBusyShared, dirEvUnblock, dirActUnblockShared).With(table.Effects{
			Next:           dStates(dirStBusyShared, dirStShared),
			ThenRedispatch: true,
		}),
		dh(dirStBusyExcl, dirEvUnblock, dirActUnblockExcl).With(table.Effects{
			Next:           dStates(dirStExclusive),
			ThenRedispatch: true,
		}),
		dh(dirStBusyWrite, dirEvUnblock, dirActUnblockExcl).With(table.Effects{
			Next:           dStates(dirStExclusive),
			ThenRedispatch: true,
		}),
		dx(dirStBusyEvict, dirEvUnblock, "evictions complete on acks, not Unblock"),
		dx(dirStWBWrite, dirEvUnblock, whyWBDead),
		dx(dirStWBEvict, dirEvUnblock, whyWBDead),
	}
	// The timestamp states and the lease-expiry event belong to the
	// tardis delta (tardis.go); the base machine declares them dead, and
	// the loops below fill their Impossible quadrants so every flavor
	// shares one state/event space.
	const (
		whyTsDead    = "timestamp states exist only under the tardis delta"
		whyLeaseDead = "lease timers are armed only by the tardis delta"
	)
	tsStates := []dirState{dirStTsShared, dirStTsWaitWrite, dirStTsWaitEvict}
	for e := dirEvent(0); e < numDirEvents; e++ {
		for _, s := range tsStates {
			rows = append(rows, dx(s, e, whyTsDead))
		}
	}
	for s := dirState(0); s < dirStTsShared; s++ {
		rows = append(rows, dx(s, dirEvLeaseExpired, whyLeaseDead))
	}
	return table.Spec[dirAction]{
		Name:       "dir",
		States:     dirStateNames[:],
		Events:     dirEventNames[:],
		Rows:       rows,
		DeadStates: []int{int(dirStWBWrite), int(dirStWBEvict), int(dirStTsShared), int(dirStTsWaitWrite), int(dirStTsWaitEvict)},
		DeadEvents: []int{int(dirEvPutShared), int(dirEvNack), int(dirEvDelayedAck), int(dirEvLeaseExpired)},
		Resources:  []string{"evbuf"},
	}
}

// dirWBDelta is the WritersBlock protocol layered over the base MESI
// directory — the paper's SLICC delta, as a table delta: the WB states
// come alive (reads tear off, writes queue, puts are stale), and the
// Nack/DelayedAck choreography of Figure 3.B gets its rows.
func dirWBDelta() table.Delta[dirAction] {
	const whyNack = "a Nack always lands in the write or eviction transaction whose invalidation provoked it"
	const whyDly = "a DelayedAck can overtake its Nack but never outlive its transaction"
	// Entering a WritersBlock drains queued reads as tear-offs and (for
	// writes) hints the writer exactly once; a DelayedAck that overtook
	// its Nack on the unordered network is consumed immediately.
	fxNackWrite := func(next ...dirState) table.Effects {
		return table.Effects{
			Next: dStates(next...),
			Sends: []table.Send{
				maybe(toCore(pcuEvHint, table.DestRequester, pcuAllStates...), "first nack hints the writer so its SoS loads bypass"),
				maybe(toCore(pcuEvTearoff, table.DestRequester, pcuRdStates...), "queued reads drain as tear-offs"),
				maybe(toCore(pcuEvAck, table.DestRequester, pcuWrStates...), "a delayed ack that overtook this nack redirects to the writer at once"),
			},
		}
	}
	fxNackEvict := table.Effects{
		Next: dStates(dirStWBEvict, dirStNoEntry),
		Sends: []table.Send{
			maybe(toCore(pcuEvTearoff, table.DestRequester, pcuRdStates...), "queued reads drain as tear-offs"),
		},
		Releases: []int{dirResEvBuf},
	}
	return table.Delta[dirAction]{
		Name: "wb",
		Rows: []table.Row[dirAction]{
			// Reads are admitted under WritersBlock (tear-off, §3.4);
			// writes queue behind the blocked store (§3, goal 2).
			dh(dirStWBWrite, dirEvRead, dirActReadTearoff).With(table.Effects{
				Sends: []table.Send{toCore(pcuEvTearoff, table.DestRequester, pcuRdStates...)},
			}),
			dh(dirStWBEvict, dirEvRead, dirActReadTearoff).With(table.Effects{
				Sends: []table.Send{toCore(pcuEvTearoff, table.DestRequester, pcuRdStates...)},
			}),
			dh(dirStWBWrite, dirEvWrite, dirActWriteQueueWB).With(table.Effects{
				Sends:  []table.Send{toCore(pcuEvHint, table.DestRequester, pcuAllStates...)},
				Blocks: &table.Block{Net: int(network.VNetResponse), Note: "queued write released when DelayedAcks drain the WritersBlock"},
			}),
			dh(dirStWBEvict, dirEvWrite, dirActWriteQueueWB).With(table.Effects{
				Sends:  []table.Send{toCore(pcuEvHint, table.DestRequester, pcuAllStates...)},
				Blocks: &table.Block{Net: int(network.VNetResponse), Note: "queued write released when DelayedAcks drain the WritersBlock"},
			}),
			dn(dirStWBWrite, dirEvPutOwned, "put lost a race with the write forward that provoked the WritersBlock", dirActPutStale).With(fxPutStale()),
			dn(dirStWBEvict, dirEvPutOwned, "put crossed the eviction invalidation that provoked the WritersBlock", dirActPutStale).With(fxPutStale()),
			dh(dirStWBEvict, dirEvInvAck, dirActEvictionAck).With(table.Effects{
				Next:     dStates(dirStWBEvict, dirStNoEntry),
				Releases: []int{dirResEvBuf},
			}),
			dh(dirStBusyWrite, dirEvNack, dirActNackWrite).With(fxNackWrite(dirStWBWrite)),
			dh(dirStWBWrite, dirEvNack, dirActNackWrite).With(fxNackWrite()),
			dh(dirStBusyEvict, dirEvNack, dirActNackEvict).With(fxNackEvict),
			dh(dirStWBEvict, dirEvNack, dirActNackEvict).With(fxNackEvict),
			dh(dirStBusyWrite, dirEvDelayedAck, dirActDelayedEarly).With(table.Effects{}),
			dh(dirStBusyEvict, dirEvDelayedAck, dirActDelayedEarly).With(table.Effects{}),
			dh(dirStWBWrite, dirEvDelayedAck, dirActDelayedAck).With(table.Effects{
				Sends: []table.Send{maybe(toCore(pcuEvAck, table.DestRequester, pcuWrStates...), "each accounted delayed ack redirects to the writer")},
			}),
			dh(dirStWBEvict, dirEvDelayedAck, dirActDelayedAck).With(table.Effects{
				Next:     dStates(dirStWBEvict, dirStNoEntry),
				Releases: []int{dirResEvBuf},
			}),
			dh(dirStWBWrite, dirEvUnblock, dirActUnblockExcl).With(table.Effects{
				Next:           dStates(dirStExclusive),
				ThenRedispatch: true,
			}),
			dx(dirStWBEvict, dirEvUnblock, "evictions complete on acks, not Unblock"),
			dx(dirStWBWrite, dirEvInvAck, "a WritersBlock write sent no eviction invalidations; its acks flow to the writer"),
			dx(dirStWBWrite, dirEvOwnerData, "owners answer FwdGetX with DataExcl to the writer, never OwnerData"),
			dx(dirStWBEvict, dirEvOwnerData, "eviction invalidations are never read forwards"),
			dx(dirStNoEntry, dirEvNack, whyNack),
			dx(dirStInvalid, dirEvNack, whyNack),
			dx(dirStShared, dirEvNack, whyNack),
			dx(dirStExclusive, dirEvNack, whyNack),
			dx(dirStFetching, dirEvNack, whyNack),
			dx(dirStBusyShared, dirEvNack, whyNack),
			dx(dirStBusyExcl, dirEvNack, whyNack),
			dx(dirStNoEntry, dirEvDelayedAck, whyDly),
			dx(dirStInvalid, dirEvDelayedAck, whyDly),
			dx(dirStShared, dirEvDelayedAck, whyDly),
			dx(dirStExclusive, dirEvDelayedAck, whyDly),
			dx(dirStFetching, dirEvDelayedAck, whyDly),
			dx(dirStBusyShared, dirEvDelayedAck, whyDly),
			dx(dirStBusyExcl, dirEvDelayedAck, whyDly),
		},
		ReviveStates: []int{int(dirStWBWrite), int(dirStWBEvict)},
		ReviveEvents: []int{int(dirEvNack), int(dirEvDelayedAck)},
	}
}

// dirNSDelta enables the PutSh event for non-silent shared evictions
// (the §3.8 ablation knob): only a Shared entry naming the sender can
// drop it from the sharer list; everywhere else the copy is already
// covered by an in-flight invalidation and the put is stale.
func dirNSDelta() table.Delta[dirAction] {
	return table.Delta[dirAction]{
		Name: "ns",
		Rows: []table.Row[dirAction]{
			dn(dirStNoEntry, dirEvPutShared, "shared eviction raced the directory eviction that dropped the entry", dirActPutStale).With(fxPutStale()),
			dn(dirStInvalid, dirEvPutShared, "sharer list already empty; duplicate or reordered PutSh", dirActPutStale).With(fxPutStale()),
			dh(dirStShared, dirEvPutShared, dirActPutShared).With(table.Effects{
				Next:  dStates(dirStShared, dirStInvalid),
				Sends: []table.Send{toCore(pcuEvPutAck, table.DestRequester, pcuAllStates...)},
			}),
			dn(dirStExclusive, dirEvPutShared, "line owned exclusively; the PutSh lost a race with a write grant", dirActPutStale).With(fxPutStale()),
			dn(dirStFetching, dirEvPutShared, "entry was evicted and refetched while the PutSh was in flight", dirActPutStale).With(fxPutStale()),
			dn(dirStBusyShared, dirEvPutShared, "in-flight read grant; the sharer list is being rebuilt", dirActPutStale).With(fxPutStale()),
			dn(dirStBusyExcl, dirEvPutShared, "in-flight exclusive grant already invalidates the copy", dirActPutStale).With(fxPutStale()),
			dn(dirStBusyWrite, dirEvPutShared, "in-flight write invalidation already covers the copy", dirActPutStale).With(fxPutStale()),
			dn(dirStBusyEvict, dirEvPutShared, "PutSh crossed the eviction invalidation on the unordered network", dirActPutStale).With(fxPutStale()),
		},
		ReviveEvents: []int{int(dirEvPutShared)},
	}
}

// dirWBNSDelta covers the WritersBlock × non-silent-eviction overlap: a
// PutSh can cross the write invalidation that then gets Nacked into a
// WritersBlock, so the WB states must refuse it rather than call it
// impossible.
func dirWBNSDelta() table.Delta[dirAction] {
	return table.Delta[dirAction]{
		Name: "wbns",
		Rows: []table.Row[dirAction]{
			dn(dirStWBWrite, dirEvPutShared, "PutSh crossed the write invalidation that provoked the WritersBlock", dirActPutStale).With(fxPutStale()),
			dn(dirStWBEvict, dirEvPutShared, "PutSh crossed the eviction invalidation that provoked the WritersBlock", dirActPutStale).With(fxPutStale()),
		},
	}
}

// dirPreFixDelta reverts the (BusyE, PutOwned) and (BusyW, PutOwned)
// rows to their pre-fix stale handling: a Put that overtook its own
// grant's Unblock was acknowledged stale, promising a forward that was
// never coming and stranding the core's writeback buffer entry — the
// hostile-geometry deadlock (EXPERIMENTS.md E22). The delta exists only
// so the model checker can demonstrate that the old tables reach the
// deadlock; nothing on the simulation path composes it.
func dirPreFixDelta() table.Delta[dirAction] {
	return table.Delta[dirAction]{
		Name: "prefix",
		Rows: []table.Row[dirAction]{
			dn(dirStBusyExcl, dirEvPutOwned, "pre-fix: put treated as stale while the grant's own Unblock is in flight", dirActPutStale).With(fxPutStale()),
			dn(dirStBusyWrite, dirEvPutOwned, "pre-fix: put treated as stale while the write's own Unblock is in flight", dirActPutStale).With(fxPutStale()),
		},
	}
}

// dirMachines holds the composed directory machines, built (and
// completeness-checked) at package init.
var dirMachines = func() [numDirFlavors]*table.Machine[dirAction] {
	var ms [numDirFlavors]*table.Machine[dirAction]
	ms[dirFlavorBase] = table.MustBuild(dirBaseSpec())
	ms[dirFlavorBaseNS] = table.MustBuild(dirBaseSpec(), dirNSDelta())
	ms[dirFlavorWB] = table.MustBuild(dirBaseSpec(), dirWBDelta())
	ms[dirFlavorWBNS] = table.MustBuild(dirBaseSpec(), dirWBDelta(), dirNSDelta(), dirWBNSDelta())
	ms[dirFlavorTardis] = table.MustBuild(dirBaseSpec(), dirTardisDelta())
	return ms
}()

// ---------------------------------------------------------------------
// Actions. Each is a verbatim port of one branch of the old per-message
// switch handlers; the table supplies the (state, event) guard that the
// switches used to encode in control flow.
// ---------------------------------------------------------------------

// dirActAlloc handles a request for a line with no directory entry.
func dirActAlloc(b *Bank, _ *dirLine, m *Msg) { b.allocateAndFetch(m) }

// dirActQueue parks a request on a transient entry until it stabilizes.
func dirActQueue(_ *Bank, dl *dirLine, m *Msg) { dl.pending = append(dl.pending, *m) }

// dirActReadGrantExcl grants MESI Exclusive from the LLC copy: no
// sharers exist.
func dirActReadGrantExcl(b *Bank, dl *dirLine, m *Msg) {
	if !dl.dataValid {
		panicf("bank %d: %v invalid without data", b.id, m.Line)
	}
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{requester: m.Requester, grantExcl: true})
	b.sendAfter(b.params.LLCLatency, m.Requester,
		&Msg{Type: MsgData, Line: m.Line, Requester: m.Requester, Data: dl.data, HasData: true, Excl: true})
}

// dirActReadGrantShared grants a shared copy from the LLC.
func dirActReadGrantShared(b *Bank, dl *dirLine, m *Msg) {
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{requester: m.Requester})
	b.sendAfter(b.params.LLCLatency, m.Requester,
		&Msg{Type: MsgData, Line: m.Line, Requester: m.Requester, Data: dl.data, HasData: true})
}

// dirActReadFwd starts a 3-hop read: the owner sends data to the
// requester and a clean copy back to the directory.
func dirActReadFwd(b *Bank, dl *dirLine, m *Msg) {
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{requester: m.Requester, fwd: true, oldOwner: dl.owner})
	b.sendAfter(b.params.TagLatency, dl.owner,
		&Msg{Type: MsgFwdGetS, Line: m.Line, Requester: m.Requester})
}

// dirActReadTearoff is the heart of WritersBlock: reads are admitted and
// receive an uncacheable tear-off copy of the latest pre-write data.
func dirActReadTearoff(b *Bank, dl *dirLine, m *Msg) { b.serveTearoff(dl, m) }

// dirActWriteGrant grants exclusivity for a write to an unshared line.
func dirActWriteGrant(b *Bank, dl *dirLine, m *Msg) {
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{write: true, requester: m.Requester})
	b.sendAfter(b.params.LLCLatency, m.Requester,
		&Msg{Type: MsgDataExcl, Line: m.Line, Requester: m.Requester, Data: dl.data, HasData: true})
}

// dirActWriteInvalidate invalidates every other sharer; acks flow
// directly to the writer in the base protocol. If the requester already
// holds the line (upgrade) no data is sent.
func dirActWriteInvalidate(b *Bank, dl *dirLine, m *Msg) {
	// Data can be omitted only when the requester both claims and is
	// registered to hold a shared copy (silent evictions make the
	// sharer list an over-approximation, and an invalidation racing
	// with the upgrade may have removed the requester already).
	upgrade := m.Upgrade && b.isSharer(dl, m.Requester)
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{write: true, requester: m.Requester})
	invs := 0
	for _, s := range dl.sharers {
		if s != m.Requester {
			b.sendAfter(b.params.TagLatency, s,
				&Msg{Type: MsgInv, Line: m.Line, Requester: m.Requester})
			invs++
		}
	}
	dl.sharers = dl.sharers[:0]
	resp := &Msg{Type: MsgDataExcl, Line: m.Line, Requester: m.Requester, AckCount: invs}
	delay := b.params.TagLatency
	if !upgrade {
		resp.Data = dl.data
		resp.HasData = true
		delay = b.params.LLCLatency
	}
	b.sendAfter(delay, m.Requester, resp)
}

// dirActWriteFwd forwards the write to the owner, who sends data+ack to
// the writer (or data to the writer and Nack+Data to the directory when
// a lockdown is hit).
func dirActWriteFwd(b *Bank, dl *dirLine, m *Msg) {
	old := dl.owner
	b.setKind(dl, dirBusy)
	dl.openTxn(dirTxn{write: true, requester: m.Requester, fwd: true, oldOwner: old})
	dl.owner = m.Requester // for stale-Put detection
	b.sendAfter(b.params.TagLatency, old,
		&Msg{Type: MsgFwdGetX, Line: m.Line, Requester: m.Requester})
}

// dirActWriteQueueWB implements goal (2) of Section 3: no further writes
// can be performed before the blocked store. Queue, and hint the writer
// so its SoS loads bypass the blocked MSHR.
func dirActWriteQueueWB(b *Bank, dl *dirLine, m *Msg) {
	b.Stats.QueuedWrites++
	dl.pending = append(dl.pending, *m)
	b.sendAfter(b.params.TagLatency, m.Requester,
		&Msg{Type: MsgBlockedHint, Line: m.Line, Requester: m.Requester})
}

// dirActPutStale acknowledges a Put that lost a race (the directory
// already moved ownership or dropped the entry); its data is dropped —
// the core served any forward from its writeback buffer.
func dirActPutStale(b *Bank, _ *dirLine, m *Msg) {
	b.sendAfter(b.params.TagLatency, m.Src,
		&Msg{Type: MsgPutAck, Line: m.Line, Requester: m.Src, Stale: true})
}

// dirActPutRace disambiguates an owned-line Put that lands in a grant or
// write transaction still awaiting its Unblock. The freshly-granted core
// can install, evict, and send its Put on the request network before its
// Unblock (response network) reaches the directory; under network jitter
// the Put may overtake it. That Put is not stale — no forward is in
// flight, and a stale ack would tell the core to hold its writeback
// buffer for a forward that never comes (the quiescence leak behind the
// hostile-geometry hang). Queue it: once the Unblock lands and the entry
// stabilizes to Exclusive with the requester as owner, the redispatch
// accepts it as a normal PutOwned. A Put from any other core did lose a
// race with the in-flight grant/forward and is acked stale.
// One exception within the exception: when the transaction forwarded to
// the Put's own sender (a core re-requesting a line whose eviction is
// still in flight makes it both requester and old owner), the Put races
// that forward, not the Unblock — the writeback buffer serves the
// forward, and the stale ack is the designed answer. Queueing it would
// later replay a stale writeback over the re-granted line.
func dirActPutRace(b *Bank, dl *dirLine, m *Msg) {
	txn := &dl.txn
	if dl.hasTxn && m.Src == txn.requester && !(txn.fwd && txn.oldOwner == m.Src) {
		dl.pending = append(dl.pending, *m)
		return
	}
	dirActPutStale(b, dl, m)
}

// dirActPutOwned accepts an owned-line writeback. The ownership check
// stays a guard: Exclusive says *someone* owns the line, only the txn-
// free owner field says it is the sender.
func dirActPutOwned(b *Bank, dl *dirLine, m *Msg) {
	if !dl.hasOwner || dl.owner != m.Src {
		dirActPutStale(b, dl, m)
		return
	}
	if m.HasData {
		dl.data = m.Data
		dl.dataValid = true
		dl.dirty = true
	}
	dl.hasOwner = false
	if m.Type == MsgPutS {
		// Section 3.8: an owned-line eviction under a lockdown becomes
		// "silent" — the core stays in the sharer list so a future
		// write's invalidation still reaches its load queue.
		dl.kind = dirShared
		dl.sharers = append(dl.sharers[:0], m.Src)
		if !dl.dataValid {
			panicf("bank %d: PutS for %v without data", b.id, m.Line)
		}
	} else {
		dl.kind = dirInvalid
		if !dl.dataValid {
			// PutE of a clean line never modified: memory is current.
			dl.data = b.memory.ReadLine(dl.line)
			dl.dataValid = true
			dl.dirty = false
			b.Stats.MemReads++
		}
	}
	b.sendAfter(b.params.TagLatency, m.Src,
		&Msg{Type: MsgPutAck, Line: m.Line, Requester: m.Src})
	b.processPending(dl)
}

// dirActPutShared drops the sender from the sharer list (non-silent
// shared eviction). A sender not on the list is a stale ghost.
func dirActPutShared(b *Bank, dl *dirLine, m *Msg) {
	if !b.isSharer(dl, m.Src) {
		dirActPutStale(b, dl, m)
		return
	}
	b.removeSharer(dl, m.Src)
	if len(dl.sharers) == 0 {
		dl.kind = dirInvalid
	}
	b.sendAfter(b.params.TagLatency, m.Src,
		&Msg{Type: MsgPutAck, Line: m.Line, Requester: m.Src})
}

// dirActEvictionAck counts one eviction-invalidation acknowledgement.
func dirActEvictionAck(b *Bank, dl *dirLine, m *Msg) {
	if m.HasData {
		dl.data = m.Data
		dl.dataValid = true
		dl.dirty = true
	}
	dl.txn.acksPending--
	dl.txn.ackFrom = removeEP(dl.txn.ackFrom, m.Src)
	b.maybeFinishEviction(dl)
}

// absorbNack records a Nack's payload and delayed-ack debt, and reports
// whether the matching DelayedAck already arrived (overtook the Nack in
// the unordered network) and must be consumed once the entry's
// WritersBlock bookkeeping is done.
func (b *Bank) absorbNack(dl *dirLine, m *Msg) bool {
	if m.HasData {
		dl.data = m.Data
		dl.dataValid = true
		dl.dirty = true
	}
	dl.txn.delayedPending++
	if i := slices.Index(b.earlyDelayed, m.Line); i >= 0 {
		b.earlyDelayed = slices.Delete(b.earlyDelayed, i, i+1)
		return true
	}
	dl.txn.delayedFrom = append(dl.txn.delayedFrom, m.Src)
	return false
}

// dirActNackWrite enters (or extends) a write's WritersBlock: a core's
// lockdown was hit by the write's invalidation (Figure 3.B).
func dirActNackWrite(b *Bank, dl *dirLine, m *Msg) {
	txn := &dl.txn
	early := b.absorbNack(dl, m)
	if dl.kind != dirWB {
		b.setKind(dl, dirWB)
		b.Stats.WBEntries++
		b.Stats.BlockedWrites++
		// Release any reads that were queued while Busy: WritersBlock
		// admits reads.
		b.drainPendingReads(dl)
	}
	if !txn.hinted {
		txn.hinted = true
		b.sendAfter(b.params.TagLatency, txn.requester,
			&Msg{Type: MsgBlockedHint, Line: m.Line, Requester: txn.requester})
	}
	if early {
		b.consumeDelayedAck(dl)
	}
}

// dirActNackEvict enters (or extends) an eviction's WritersBlock: the
// entry parks in the eviction buffer until the lockdown lifts (§3.5.1).
func dirActNackEvict(b *Bank, dl *dirLine, m *Msg) {
	early := b.absorbNack(dl, m)
	dl.txn.acksPending--
	dl.txn.ackFrom = removeEP(dl.txn.ackFrom, m.Src)
	if dl.kind != dirWB {
		b.setKind(dl, dirWB)
		b.Stats.WBEntries++
		b.Stats.EvictionsWB++
		b.drainPendingReads(dl)
	}
	if early {
		b.consumeDelayedAck(dl)
	}
}

// dirActDelayedEarly buffers a DelayedAck that overtook its Nack in the
// unordered network; it is consumed when the Nack arrives.
func dirActDelayedEarly(b *Bank, _ *dirLine, m *Msg) {
	b.earlyDelayed = append(b.earlyDelayed, m.Line)
}

// dirActDelayedAck accounts a lifted lockdown against the WritersBlock
// (or buffers it if its own Nack is still in flight).
func dirActDelayedAck(b *Bank, dl *dirLine, m *Msg) {
	if dl.txn.delayedPending <= 0 {
		b.earlyDelayed = append(b.earlyDelayed, m.Line)
		return
	}
	dl.txn.delayedFrom = removeEP(dl.txn.delayedFrom, m.Src)
	b.consumeDelayedAck(dl)
}

// dirActOwnerData stores the clean copy an owner sends on a read
// downgrade.
func dirActOwnerData(b *Bank, dl *dirLine, m *Msg) {
	if !dl.txn.fwd {
		panicf("bank %d: stray OwnerData for %v", b.id, m.Line)
	}
	dl.data = m.Data
	dl.dataValid = true
	dl.dirty = true
	dl.txn.gotOwnerData = true
	b.maybeCompleteRead(dl)
}

// dirActUnblockShared finishes a shared read grant (or records the
// Unblock while the 3-hop owner data is still in flight).
func dirActUnblockShared(b *Bank, dl *dirLine, m *Msg) {
	dl.txn.gotUnblock = true
	b.maybeCompleteRead(dl)
}

// dirActUnblockExcl finishes a write or exclusive-grant transaction:
// ownership transferred, so the LLC copy is now potentially stale.
func dirActUnblockExcl(b *Bank, dl *dirLine, m *Msg) {
	txn := &dl.txn
	if txn.delayedPending != 0 {
		panicf("bank %d: Unblock for %v with %d delayed acks outstanding",
			b.id, m.Line, txn.delayedPending)
	}
	// Preserve dirty data in memory before dropping validity.
	if dl.dirty && dl.dataValid {
		b.memory.WriteLine(dl.line, dl.data)
		b.Stats.MemWrites++
	}
	dl.dataValid = false
	dl.dirty = false
	dl.kind = dirExclusive
	dl.owner = m.Src
	dl.hasOwner = true
	dl.sharers = dl.sharers[:0]
	dl.hasTxn = false
	b.processPending(dl)
}

// sendAfter schedules a message after delay cycles of local processing.
// The message is copied into the queued event, so callers may pass
// short-lived stack values.
func (b *Bank) sendAfter(delay int, dst network.Endpoint, m *Msg) {
	if b.conf != nil {
		b.conf.send(dst, m)
	}
	b.events.After(b.now, sim.Cycle(delay), deferred{kind: dfBankSend, dst: dst, m: *m})
}

// find returns the directory entry for line, looking in the live slice
// first, then the eviction buffer. The eviction buffer is empty for
// almost every message, so its lookup is gated on length to keep the
// dispatch path to a single map access.
func (b *Bank) find(line mem.Line) *dirLine {
	if dl, ok := b.lines[line]; ok {
		return dl
	}
	if len(b.evbuf) == 0 {
		return nil
	}
	return b.evbufFind(line)
}

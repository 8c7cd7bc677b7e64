package coherence

// The tardis protocol: timestamp coherence in the style of Tardis 2.0
// (Yu & Devadas, PACT 2015 / TACO 2016), layered on the same machines
// as the MESI baseline purely as table deltas. The directory never
// forms a sharer list and never sends invalidations for shared copies.
// Instead, every shared grant carries a read lease — an absolute expiry
// cycle — and the directory remembers only the latest lease it (or a
// forwarded owner) granted, in dirLine.rts. A write to a leased line
// parks until rts has passed; shared copies self-downgrade at their
// expiry with no message in either direction. The exclusive-ownership
// half of the protocol (E/M grants, 3-hop forwards, writebacks) is the
// base machine, untouched.
//
// Interaction with the paper's load-load reordering problem: since no
// invalidation ever reaches a core for a shared line, lease expiry is
// the ONLY signal that a value bound by an M-speculative load may be
// going stale — PCU.leaseLapsed feeds it to the same
// OrderingHooks.OnInvalidation seam the MESI protocols use, so squash-
// based cores revalidate exactly as if an invalidation had arrived.
// Lockdown cores cannot run tardis (there is nothing to Nack); the
// protocol registry enforces the pairing.
//
// Model-checker note: lease expiries are timers, not messages. Both
// timer events (dfBankLease, dfPCULease) name their target by line,
// never by entry pointer, so cloned states re-resolve them; expiry
// cycles are stamps and stay out of state fingerprints.

import (
	"wbsim/internal/cache"
	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
	"wbsim/internal/network"
)

// ProtoTardis registers timestamp coherence with the protocol registry.
// This entry (plus the two deltas below) is the protocol's entire
// integration: variants, tools, conformance tests, and the experiment
// matrix all pick it up from here.
var ProtoTardis = registerProtocol(&Protocol{
	Name:      "tardis",
	Desc:      "timestamp coherence: leased reads, no invalidation fan-out, writes wait out leases",
	Mode:      ModeTardis,
	Evaluated: true,
})

// ---------------------------------------------------------------------
// Directory delta
// ---------------------------------------------------------------------

// dirTardisDelta replaces the Shared state with the leased TsShared
// family. The base Shared state is killed — with no sharer list there
// is nothing for it to track — and the three timestamp states plus the
// lease-expiry event come alive.
func dirTardisDelta() table.Delta[dirAction] {
	const (
		whyKilledS = "the tardis directory never forms a sharer list; leased copies live in TsShared (killed state)"
		whyNoInv   = "the tardis directory never invalidates shared copies; leases expire instead"
		whyNoNack  = "Nacks and DelayedAcks answer invalidations, which tardis never sends for shared copies"
		whyNoPutSh = "tardis forbids non-silent shared evictions; a leased copy leaves by expiring"
		whyNoOwner = "OwnerData lands in the BusyS transaction of the 3-hop read that forms a leased line"
		whyNoUnbl  = "leased grants are fire-and-forget; no Unblock is owed"
		whyNoTimer = "lease timers are armed only when a write or eviction waits out the leases"
		whyPutTs   = "no owner exists while leases are out; the put raced the forward that formed them"
	)
	fxQueueTs := fxParked("queued until the lease timer releases the parked transaction")
	return table.Delta[dirAction]{
		Name: "tardis",
		Rows: []table.Row[dirAction]{
			// Kill Shared: Build enforces that a killed state holds only
			// Impossible rows, so a lost override here is a build error.
			dx(dirStShared, dirEvRead, whyKilledS),
			dx(dirStShared, dirEvWrite, whyKilledS),
			dx(dirStShared, dirEvPutOwned, whyKilledS),

			// A 3-hop read completes on OwnerData alone: the forwarded
			// owner already stamped the requester's lease, and the
			// directory's own stamp (taken later, here) covers it. The
			// requester never unblocks a shared transaction.
			dh(dirStBusyShared, dirEvOwnerData, dirActTsOwnerData).With(table.Effects{
				Next:           dStates(dirStTsShared),
				ThenRedispatch: true,
			}),
			dx(dirStBusyShared, dirEvUnblock, whyNoUnbl),

			// Same action as the base row, narrowed effects: PutS exists
			// only under lockdown cores, so an accepted put can no longer
			// downgrade the entry to Shared.
			dh(dirStExclusive, dirEvPutOwned, dirActPutOwned).With(table.Effects{
				Next:           dStates(dirStInvalid, dirStExclusive),
				ThenRedispatch: true,
				Sends:          []table.Send{toCore(pcuEvPutAck, table.DestRequester, pcuAllStates...)},
			}),

			// TsShared: stable, any number of leased copies outstanding.
			// Reads stack further leases with no transaction; the first
			// write parks one and arms the timer.
			dh(dirStTsShared, dirEvRead, dirActTsReadLease).With(table.Effects{
				Sends: []table.Send{toCore(pcuEvData, table.DestRequester, pcuRdStates...)},
			}),
			dh(dirStTsShared, dirEvWrite, dirActTsWritePark).With(table.Effects{
				Next: dStates(dirStTsWaitWrite),
				Blocks: &table.Block{Net: int(network.VNetResponse),
					Note: "write parked until the last read lease expires; the lease timer releases it"},
			}),
			dn(dirStTsShared, dirEvPutOwned, whyPutTs, dirActPutStale).With(fxPutStale()),
			dx(dirStTsShared, dirEvPutShared, whyNoPutSh),
			dx(dirStTsShared, dirEvInvAck, whyNoInv),
			dx(dirStTsShared, dirEvNack, whyNoNack),
			dx(dirStTsShared, dirEvDelayedAck, whyNoNack),
			dx(dirStTsShared, dirEvOwnerData, whyNoOwner),
			dx(dirStTsShared, dirEvUnblock, whyNoUnbl),
			dx(dirStTsShared, dirEvLeaseExpired, whyNoTimer),

			// TsWaitWrite: one write parked on the rts bound. Later
			// requests queue behind it in arrival order.
			dh(dirStTsWaitWrite, dirEvRead, dirActQueue).With(fxQueueTs),
			dh(dirStTsWaitWrite, dirEvWrite, dirActQueue).With(fxQueueTs),
			dn(dirStTsWaitWrite, dirEvPutOwned, whyPutTs, dirActPutStale).With(fxPutStale()),
			dx(dirStTsWaitWrite, dirEvPutShared, whyNoPutSh),
			dx(dirStTsWaitWrite, dirEvInvAck, whyNoInv),
			dx(dirStTsWaitWrite, dirEvNack, whyNoNack),
			dx(dirStTsWaitWrite, dirEvDelayedAck, whyNoNack),
			dx(dirStTsWaitWrite, dirEvOwnerData, whyNoOwner),
			dx(dirStTsWaitWrite, dirEvUnblock, "the parked write has not been granted yet; its Unblock lands in BusyW after the timer fires"),
			dh(dirStTsWaitWrite, dirEvLeaseExpired, dirActTsWriteRelease).With(table.Effects{
				Next:  dStates(dirStBusyWrite),
				Sends: []table.Send{toCore(pcuEvDataExcl, table.DestWaiter, pcuWrStates...)},
			}),

			// TsWaitEvict: the entry sits in the eviction buffer until
			// every lease has expired; no invalidation fan-out exists.
			dh(dirStTsWaitEvict, dirEvRead, dirActQueue).With(fxQueueTs),
			dh(dirStTsWaitEvict, dirEvWrite, dirActQueue).With(fxQueueTs),
			dn(dirStTsWaitEvict, dirEvPutOwned, "no owner exists while leases are out; the put raced the eviction", dirActPutStale).With(fxPutStale()),
			dx(dirStTsWaitEvict, dirEvPutShared, whyNoPutSh),
			dx(dirStTsWaitEvict, dirEvInvAck, whyNoInv),
			dx(dirStTsWaitEvict, dirEvNack, whyNoNack),
			dx(dirStTsWaitEvict, dirEvDelayedAck, whyNoNack),
			dx(dirStTsWaitEvict, dirEvOwnerData, whyNoOwner),
			dx(dirStTsWaitEvict, dirEvUnblock, "tardis evictions complete on the lease timer, not Unblock"),
			dh(dirStTsWaitEvict, dirEvLeaseExpired, dirActTsEvictDone).With(table.Effects{
				Next:     dStates(dirStNoEntry),
				Releases: []int{dirResEvBuf},
			}),
		},
		ReviveStates: []int{int(dirStTsShared), int(dirStTsWaitWrite), int(dirStTsWaitEvict)},
		ReviveEvents: []int{int(dirEvLeaseExpired)},
		KillStates:   []int{int(dirStShared)},
	}
}

// ---------------------------------------------------------------------
// Directory actions
// ---------------------------------------------------------------------

// leaseSpan returns the absolute expiry cycle of a lease granted now.
func leaseSpan(now simCycle, p *Params) simCycle {
	return now + simCycle(p.TardisLease)
}

// extendRTS raises the line's read timestamp to cover a lease expiring
// at exp (rts never moves backward: earlier leases may still be out).
func extendRTS(dl *dirLine, exp simCycle) {
	if exp > dl.rts {
		dl.rts = exp
	}
}

// dirActTsOwnerData completes a 3-hop read under tardis: the owner's
// clean copy lands, and the entry goes straight to TsShared — no
// Unblock leg. The requester's lease was stamped by the owner at
// forward-service time (owner_now + span), so the directory's own
// stamp, taken strictly later, always covers it.
func dirActTsOwnerData(b *Bank, dl *dirLine, m *Msg) {
	if !dl.hasTxn || !dl.txn.fwd {
		panicf("bank %d: stray OwnerData for %v", b.id, m.Line)
	}
	dl.data = m.Data
	dl.dataValid = true
	dl.dirty = true
	dl.hasOwner = false
	dl.sharers = dl.sharers[:0]
	dl.hasTxn = false
	b.setKind(dl, dirTsShared)
	extendRTS(dl, leaseSpan(b.now, b.params))
	b.processPending(dl)
}

// dirActTsReadLease serves a read of a leased line from the LLC copy:
// another lease is stamped and the data goes out, with no transaction
// and no sharer-list growth — concurrent readers never interact.
func dirActTsReadLease(b *Bank, dl *dirLine, m *Msg) {
	if !dl.dataValid {
		panicf("bank %d: TsShared %v without data", b.id, m.Line)
	}
	exp := leaseSpan(b.now, b.params)
	extendRTS(dl, exp)
	b.Stats.LeaseGrants++
	b.sendAfter(b.params.LLCLatency, m.Requester,
		&Msg{Type: MsgData, Line: m.Line, Requester: m.Requester, Data: dl.data, HasData: true, Lease: exp})
}

// dirActTsWritePark parks a write until every outstanding lease has
// expired. No wall-clock comparison happens here — even if rts is
// already in the past the release goes through the timer event, so the
// model checker sees one uniform transition structure.
func dirActTsWritePark(b *Bank, dl *dirLine, m *Msg) {
	b.Stats.BlockedWrites++
	dl.openTxn(dirTxn{write: true, requester: m.Requester})
	dl.since = b.now
	b.armLeaseTimer(dl)
}

// dirActTsWriteRelease fires when the parked write's lease bound has
// passed: grant exclusivity with data (the requester's own lease, if it
// ever had one, expired strictly before this timer) and wait for the
// ordinary Unblock in BusyW.
func dirActTsWriteRelease(b *Bank, dl *dirLine, m *Msg) {
	b.Stats.LeaseExpiries++
	txn := &dl.txn
	b.setKind(dl, dirBusy)
	b.sendAfter(b.params.LLCLatency, txn.requester,
		&Msg{Type: MsgDataExcl, Line: dl.line, Requester: txn.requester, Data: dl.data, HasData: true})
}

// startTsEviction parks an evicted TsShared entry in the eviction
// buffer until its leases expire. The caller (startEviction) already
// detached the entry from the live array and map.
func (b *Bank) startTsEviction(dl *dirLine) {
	dl.openTxn(dirTxn{eviction: true})
	dl.since = b.now
	dl.inEvBuf = true
	b.evbufPut(dl)
	b.armLeaseTimer(dl)
}

// dirActTsEvictDone completes a leased-line eviction once the timer
// clears the last lease: write back if dirty, free the buffer slot, and
// requeue anything that arrived mid-eviction.
func dirActTsEvictDone(b *Bank, dl *dirLine, m *Msg) {
	b.Stats.LeaseExpiries++
	if dl.dirty && dl.dataValid {
		b.memory.WriteLine(dl.line, dl.data)
		b.Stats.MemWrites++
	}
	b.evbufDrop(dl.line)
	dl.hasTxn = false
	dl.inEvBuf = false
	b.requeueOrphans(dl)
	b.retireLine(dl)
}

// armLeaseTimer schedules dirEvLeaseExpired for the cycle after the
// line's read timestamp. rts is frozen once a transaction parks (reads
// queue instead of stacking leases), so one timer per parked
// transaction suffices and always finds the state it was armed in.
func (b *Bank) armLeaseTimer(dl *dirLine) {
	delay := simCycle(1)
	if dl.rts+1 > b.now {
		delay = dl.rts + 1 - b.now
	}
	b.events.After(b.now, delay, deferred{kind: dfBankLease, line: dl.line})
}

// ---------------------------------------------------------------------
// PCU delta
// ---------------------------------------------------------------------

// pcuTardisDelta overrides the read-grant rows (a shared grant now
// carries a lease and owes no Unblock) and the forwarded-read rows (the
// owner stamps the requester's lease and drops its copy instead of
// downgrading — an unleased S copy would outlive the rts bound that
// makes tardis writes safe).
func pcuTardisDelta() table.Delta[pcuAction] {
	fxReadGrantTs := func(next pcuState) table.Effects {
		return table.Effects{
			Next: pStates(next),
			Sends: []table.Send{maybe(toDir(dirEvUnblock, table.DestHome, dirStBusyExcl),
				"only exclusive grants unblock; leased grants are fire-and-forget")},
			Releases: []int{pcuResMSHR},
		}
	}
	fxFwdGetSTs := table.Effects{Sends: []table.Send{
		toCore(pcuEvData, table.DestRequester, pcuRdStates...),
		toDir(dirEvOwnerData, table.DestHome, dirStBusyShared),
	}}
	return table.Delta[pcuAction]{
		Name: "tardis",
		Rows: []table.Row[pcuAction]{
			ph(pcuStRead, pcuEvData, pcuActReadGrantTs).With(fxReadGrantTs(pcuStIdle)),
			ph(pcuStReadWrite, pcuEvData, pcuActReadGrantTs).With(fxReadGrantTs(pcuStWrite)),

			ph(pcuStIdle, pcuEvFwdGetS, pcuActFwdGetSTs).With(fxFwdGetSTs),
			ph(pcuStRead, pcuEvFwdGetS, pcuActFwdGetSTs).With(fxFwdGetSTs),
			ph(pcuStWrite, pcuEvFwdGetS, pcuActFwdGetSTs).With(fxFwdGetSTs),
			ph(pcuStReadWrite, pcuEvFwdGetS, pcuActFwdGetSTs).With(fxFwdGetSTs),
		},
	}
}

// pcuActReadGrantTs installs a read grant under tardis. Exclusive
// grants run the base path (install E, Unblock). Leased grants install
// S, record the expiry, and arm the self-downgrade timer — no Unblock.
// A lease that already expired in flight (possible only under extreme
// injected network delay) is delivered tear-off style: the value binds
// but nothing is installed, so a stale copy can never form.
func pcuActReadGrantTs(p *PCU, m *Msg, rd, wr *pcuMSHR) {
	if m.Excl {
		pcuActReadGrant(p, m, rd, wr)
		return
	}
	loads, _ := p.retire(rd)
	if m.Lease <= p.now {
		p.Stats.TearoffsUsed++
		for _, lw := range loads {
			p.data.LoadDone(p.now, lw.token, m.Data.Get(lw.addr), true)
		}
		return
	}
	p.install(m.Line, m.Data, stateS)
	p.leases[m.Line] = m.Lease
	p.Stats.LeasesTaken++
	p.events.After(p.now, m.Lease-p.now, deferred{kind: dfPCULease, line: m.Line, expiry: m.Lease})
	for _, lw := range loads {
		p.data.LoadDone(p.now, lw.token, m.Data.Get(lw.addr), false)
	}
}

// pcuActFwdGetSTs serves a read forwarded to this owner under tardis:
// data plus a lease stamped against this core's clock goes to the
// requester, the clean copy to the directory — and the owner drops the
// line entirely. It must not keep an S copy: with no sharer list, a
// future write would never invalidate it, and only leased copies carry
// the expiry that bounds their staleness. Dropping ends invalidation
// delivery for good, so M-speculative loads on the line squash now,
// exactly as on a non-silent owned eviction.
func pcuActFwdGetSTs(p *PCU, m *Msg, rd, wr *pcuMSHR) {
	data, ok := p.ownedData(m.Line)
	if !ok {
		panicf("pcu %d: FwdGetS for %v not owned", p.id, m.Line)
	}
	exp := leaseSpan(p.now, p.params)
	p.dropLine(m.Line)
	p.order.OnOwnedEviction(p.now, m.Line)
	p.sendAfter(p.params.L1Latency, m.Requester,
		&Msg{Type: MsgData, Line: m.Line, Requester: m.Requester, Data: data, HasData: true, Lease: exp})
	p.sendAfter(p.params.L1Latency, p.home(m.Line),
		&Msg{Type: MsgOwnerData, Line: m.Line, Requester: m.Requester, Data: data, HasData: true})
}

// leaseLapsed fires the core's self-downgrade timer for line. The timer
// carries the expiry stamp it was armed for, so a re-granted lease is
// never torn down by its predecessor's stale timer.
func (p *PCU) leaseLapsed(line mem.Line, expiry simCycle) {
	// Expiry is the only squash signal tardis has: loads that bound from
	// this lease while M-speculative must revalidate now, even if the
	// copy was silently evicted or upgraded to ownership in the
	// meantime. Spurious firings for a superseded lease squash
	// conservatively — always sound, never missed.
	if p.order.OnInvalidation(p.now, line) {
		panicf("pcu %d: tardis core nacked a lease expiry for %v", p.id, line)
	}
	if exp, ok := p.leases[line]; ok && exp == expiry {
		delete(p.leases, line)
		p.Stats.LeaseExpiries++
		if e := p.l2.Lookup(line); e != nil && e.State == stateS {
			p.dropLine(line)
		}
	}
}

// leaseExpired reports whether a shared copy's tardis lease has lapsed
// but the expiry event has not fired yet (same-cycle ordering); such a
// copy must not serve new loads.
func (p *PCU) leaseExpired(line mem.Line, e *cache.Entry) bool {
	if p.mode != ModeTardis || e.State != stateS {
		return false
	}
	exp, ok := p.leases[line]
	return ok && p.now >= exp
}

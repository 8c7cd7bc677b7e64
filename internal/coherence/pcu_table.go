package coherence

// The PCU transition tables. The core-side machine is small: its state
// is fully determined by which MSHR transactions are outstanding for the
// line a message names, so the dispatch state is derived per message
// rather than stored. The base table is the plain MESI core controller;
// the WritersBlock delta overrides the invalidation and forwarded-write
// rows with the nack-capable versions of Figure 3.B. Under the base
// table a core that tries to nack an invalidation panics — squash-mode
// hooks always acknowledge — which keeps the entire Nack choreography
// inside the delta.

import (
	"wbsim/internal/cache"
	"wbsim/internal/coherence/table"
	"wbsim/internal/mem"
)

// pcuState is the derived dispatch state of a line at the PCU: which
// transaction MSHRs exist for it. A read and a write MSHR can coexist
// only via the SoS bypass of a blocked write (Section 3.5.2).
type pcuState int

const (
	pcuStIdle      pcuState = iota // no outstanding transaction
	pcuStRead                      // read (GetS/RetryRd) in flight
	pcuStWrite                     // write (GetX) in flight
	pcuStReadWrite                 // blocked write plus SoS bypass read
	numPCUStates
)

var pcuStateNames = [numPCUStates]string{"Idle", "Rd", "Wr", "RdWr"}

func (s pcuState) String() string { return pcuStateNames[s] }

// pcuStateOf derives the dispatch state from the resolved MSHRs.
func pcuStateOf(rd, wr *cache.MSHR) pcuState {
	switch {
	case rd == nil && wr == nil:
		return pcuStIdle
	case wr == nil:
		return pcuStRead
	case rd == nil:
		return pcuStWrite
	}
	return pcuStReadWrite
}

// pcuEvent is a core-directed protocol message class. InvAck and RedirAck
// are one event: both count toward the same ack total (Figure 3.B step 5
// redirects the withheld ack through the directory).
type pcuEvent int

const (
	pcuEvData     pcuEvent = iota // cacheable read grant
	pcuEvTearoff                  // uncacheable read data (Section 3.4)
	pcuEvDataExcl                 // write grant
	pcuEvAck                      // InvAck or RedirAck
	pcuEvInv                      // invalidation (writer- or eviction-driven)
	pcuEvFwdGetS                  // forwarded read to owner
	pcuEvFwdGetX                  // forwarded write to owner
	pcuEvPutAck                   // eviction acknowledgement
	pcuEvHint                     // BlockedHint: write waits on a WritersBlock
	numPCUEvents
)

var pcuEventNames = [numPCUEvents]string{
	"Data", "Tearoff", "DataExcl", "Ack", "Inv", "FwdGetS", "FwdGetX", "PutAck", "Hint",
}

func (e pcuEvent) String() string { return pcuEventNames[e] }

// pcuEventOf classifies a core-directed message.
func pcuEventOf(t MsgType) pcuEvent {
	//wbsim:partial(MsgGetS, MsgGetX, MsgPutM, MsgPutE, MsgPutS, MsgPutSh, MsgRetryRd, MsgNack, MsgDelayedAck, MsgOwnerData, MsgUnblock) -- directory-directed messages never reach a core; the default panic enforces it
	switch t {
	case MsgData:
		return pcuEvData
	case MsgTearoff:
		return pcuEvTearoff
	case MsgDataExcl:
		return pcuEvDataExcl
	case MsgInvAck, MsgRedirAck:
		return pcuEvAck
	case MsgInv:
		return pcuEvInv
	case MsgFwdGetS:
		return pcuEvFwdGetS
	case MsgFwdGetX:
		return pcuEvFwdGetX
	case MsgPutAck:
		return pcuEvPutAck
	case MsgBlockedHint:
		return pcuEvHint
	default:
		panic("pcu: unexpected message type " + t.String())
	}
}

// pcuAction is the payload of a PCU transition row. rd and wr are the
// line's read and write MSHRs, resolved once at dispatch (nil when the
// state says they do not exist).
type pcuAction func(p *PCU, m *Msg, rd, wr *cache.MSHR)

// Row constructors, keeping the table literals narrow.
func ph(s pcuState, e pcuEvent, do pcuAction) table.Row[pcuAction] {
	return table.Row[pcuAction]{State: int(s), Event: int(e), Kind: table.Handled, Do: do}
}

func pn(s pcuState, e pcuEvent, why string, do pcuAction) table.Row[pcuAction] {
	return table.Row[pcuAction]{State: int(s), Event: int(e), Kind: table.Nacked, Why: why, Do: do}
}

func px(s pcuState, e pcuEvent, why string) table.Row[pcuAction] {
	return table.Row[pcuAction]{State: int(s), Event: int(e), Kind: table.Impossible, Why: why}
}

// Audit reasons for the Impossible quadrants: grants and acks always
// find the MSHR that solicited them, because the MSHR frees only after
// the transaction's last response has arrived.
const (
	whyPCUData = "a read grant always finds the read MSHR that solicited it; the MSHR frees only on delivery"
	whyPCUExcl = "a write grant always finds the write MSHR that solicited it; the MSHR frees only after grant and acks"
	whyPCUAck  = "invalidation acks target the writer, which holds its write MSHR until the last ack arrives"
	whyPCUHint = "the write completed before the hint arrived; the stale hint is dropped"
)

// pcuBaseSpec declares the squash-mode core controller. Inv and FwdGetX
// run the shared choreography with nacking forbidden: squash-mode hooks
// always acknowledge, and a true return panics.
func pcuBaseSpec() table.Spec[pcuAction] {
	// Effect shorthands. A read grant frees the read MSHR and (when
	// cacheable) owes an Unblock; write completion is conditional on
	// grant + all acks, so its Unblock and MSHR release are Maybe. The
	// declared Unblock arrival states include the WritersBlock write
	// state — live only under the wb delta; the base composition
	// discounts arrivals at dead states.
	fxReadGrant := func(next pcuState) table.Effects {
		return table.Effects{
			Next:     pStates(next),
			Sends:    []table.Send{toDir(dirEvUnblock, table.DestHome, dirStBusyShared, dirStBusyExcl)},
			Releases: []int{pcuResMSHR},
		}
	}
	fxTearoff := func(next pcuState) table.Effects {
		return table.Effects{Next: pStates(next), Releases: []int{pcuResMSHR}}
	}
	fxWriteStep := func(stay, done pcuState) table.Effects {
		return table.Effects{
			Next:     pStates(stay, done),
			Sends:    []table.Send{maybe(toDir(dirEvUnblock, table.DestHome, dirStBusyWrite, dirStWBWrite), "write completes once the grant and every ack are in")},
			Releases: []int{pcuResMSHR},
		}
	}
	fxInv := table.Effects{Sends: []table.Send{
		maybe(toDir(dirEvInvAck, table.DestHome, dirStBusyEvict), "eviction invalidations ack to the directory"),
		maybe(toCore(pcuEvAck, table.DestRequester, pcuWrStates...), "writer invalidations ack straight to the writer"),
	}}
	fxFwdGetS := table.Effects{Sends: []table.Send{
		toCore(pcuEvData, table.DestRequester, pcuRdStates...),
		toDir(dirEvOwnerData, table.DestHome, dirStBusyShared),
	}}
	fxFwdGetX := table.Effects{Sends: []table.Send{
		toCore(pcuEvDataExcl, table.DestRequester, pcuWrStates...),
	}}
	rows := []table.Row[pcuAction]{
		// Read grants (cacheable and tear-off) need a read MSHR.
		px(pcuStIdle, pcuEvData, whyPCUData),
		ph(pcuStRead, pcuEvData, pcuActReadGrant).With(fxReadGrant(pcuStIdle)),
		px(pcuStWrite, pcuEvData, whyPCUData),
		ph(pcuStReadWrite, pcuEvData, pcuActReadGrant).With(fxReadGrant(pcuStWrite)),

		px(pcuStIdle, pcuEvTearoff, whyPCUData),
		ph(pcuStRead, pcuEvTearoff, pcuActTearoff).With(fxTearoff(pcuStIdle)),
		px(pcuStWrite, pcuEvTearoff, whyPCUData),
		ph(pcuStReadWrite, pcuEvTearoff, pcuActTearoff).With(fxTearoff(pcuStWrite)),

		// Write grants and invalidation acks need the write MSHR.
		px(pcuStIdle, pcuEvDataExcl, whyPCUExcl),
		px(pcuStRead, pcuEvDataExcl, whyPCUExcl),
		ph(pcuStWrite, pcuEvDataExcl, pcuActWriteGrant).With(fxWriteStep(pcuStWrite, pcuStIdle)),
		ph(pcuStReadWrite, pcuEvDataExcl, pcuActWriteGrant).With(fxWriteStep(pcuStReadWrite, pcuStRead)),

		px(pcuStIdle, pcuEvAck, whyPCUAck),
		px(pcuStRead, pcuEvAck, whyPCUAck),
		ph(pcuStWrite, pcuEvAck, pcuActAck).With(fxWriteStep(pcuStWrite, pcuStIdle)),
		ph(pcuStReadWrite, pcuEvAck, pcuActAck).With(fxWriteStep(pcuStReadWrite, pcuStRead)),

		// Invalidations and forwards arrive regardless of outstanding
		// transactions: silent evictions mean the directory may think we
		// share a line we dropped, and a forward can race our own GetX.
		ph(pcuStIdle, pcuEvInv, pcuActInv).With(fxInv),
		ph(pcuStRead, pcuEvInv, pcuActInv).With(fxInv),
		ph(pcuStWrite, pcuEvInv, pcuActInv).With(fxInv),
		ph(pcuStReadWrite, pcuEvInv, pcuActInv).With(fxInv),

		ph(pcuStIdle, pcuEvFwdGetS, pcuActFwdGetS).With(fxFwdGetS),
		ph(pcuStRead, pcuEvFwdGetS, pcuActFwdGetS).With(fxFwdGetS),
		ph(pcuStWrite, pcuEvFwdGetS, pcuActFwdGetS).With(fxFwdGetS),
		ph(pcuStReadWrite, pcuEvFwdGetS, pcuActFwdGetS).With(fxFwdGetS),

		ph(pcuStIdle, pcuEvFwdGetX, pcuActFwdGetX).With(fxFwdGetX),
		ph(pcuStRead, pcuEvFwdGetX, pcuActFwdGetX).With(fxFwdGetX),
		ph(pcuStWrite, pcuEvFwdGetX, pcuActFwdGetX).With(fxFwdGetX),
		ph(pcuStReadWrite, pcuEvFwdGetX, pcuActFwdGetX).With(fxFwdGetX),

		// PutAcks consult only the writeback buffer.
		ph(pcuStIdle, pcuEvPutAck, pcuActPutAck).With(table.Effects{}),
		ph(pcuStRead, pcuEvPutAck, pcuActPutAck).With(table.Effects{}),
		ph(pcuStWrite, pcuEvPutAck, pcuActPutAck).With(table.Effects{}),
		ph(pcuStReadWrite, pcuEvPutAck, pcuActPutAck).With(table.Effects{}),

		// BlockedHints mark the write transaction; a hint that lost the
		// race against write completion is dropped explicitly. The
		// refused sender never retries a stale hint, so no livelock.
		pn(pcuStIdle, pcuEvHint, whyPCUHint, pcuActHintStale).With(table.Effects{}),
		pn(pcuStRead, pcuEvHint, whyPCUHint, pcuActHintStale).With(table.Effects{}),
		ph(pcuStWrite, pcuEvHint, pcuActHint).With(table.Effects{}),
		ph(pcuStReadWrite, pcuEvHint, pcuActHint).With(table.Effects{}),
	}
	return table.Spec[pcuAction]{
		Name:      "pcu",
		States:    pcuStateNames[:],
		Events:    pcuEventNames[:],
		Rows:      rows,
		Resources: []string{"mshr"},
	}
}

// pcuWBDelta overrides the invalidation rows with the lockdown-capable
// versions: the core may withhold its ack (Nack to the directory, which
// enters WritersBlock), and a forwarded write carries AckCount 1 so the
// writer waits for the redirected ack (Figure 3.B).
func pcuWBDelta() table.Delta[pcuAction] {
	fxInvWB := table.Effects{Sends: []table.Send{
		maybe(toDir(dirEvInvAck, table.DestHome, dirStBusyEvict, dirStWBEvict), "eviction invalidations ack to the directory"),
		maybe(toCore(pcuEvAck, table.DestRequester, pcuWrStates...), "writer invalidations ack straight to the writer"),
		maybe(toDir(dirEvNack, table.DestHome, dirStBusyWrite, dirStBusyEvict, dirStWBWrite, dirStWBEvict), "lockdown hit: the ack is withheld and the directory enters WritersBlock"),
	}}
	fxFwdGetXWB := table.Effects{Sends: []table.Send{
		toCore(pcuEvDataExcl, table.DestRequester, pcuWrStates...),
		maybe(toDir(dirEvNack, table.DestHome, dirStBusyWrite), "lockdown hit: data goes to the writer, the withheld ack becomes a Nack"),
	}}
	return table.Delta[pcuAction]{
		Name: "wb",
		Rows: []table.Row[pcuAction]{
			ph(pcuStIdle, pcuEvInv, pcuActInvWB).With(fxInvWB),
			ph(pcuStRead, pcuEvInv, pcuActInvWB).With(fxInvWB),
			ph(pcuStWrite, pcuEvInv, pcuActInvWB).With(fxInvWB),
			ph(pcuStReadWrite, pcuEvInv, pcuActInvWB).With(fxInvWB),

			ph(pcuStIdle, pcuEvFwdGetX, pcuActFwdGetXWB).With(fxFwdGetXWB),
			ph(pcuStRead, pcuEvFwdGetX, pcuActFwdGetXWB).With(fxFwdGetXWB),
			ph(pcuStWrite, pcuEvFwdGetX, pcuActFwdGetXWB).With(fxFwdGetXWB),
			ph(pcuStReadWrite, pcuEvFwdGetX, pcuActFwdGetXWB).With(fxFwdGetXWB),
		},
	}
}

// pcuMachines holds the built core machines, indexed by Mode.
var pcuMachines = func() [numModes]*table.Machine[pcuAction] {
	var ms [numModes]*table.Machine[pcuAction]
	ms[ModeSquash] = table.MustBuild(pcuBaseSpec())
	ms[ModeLockdown] = table.MustBuild(pcuBaseSpec(), pcuWBDelta())
	ms[ModeTardis] = table.MustBuild(pcuBaseSpec(), pcuTardisDelta())
	return ms
}()

// ---------------------------------------------------------------------
// Actions — the network-facing handlers, one per Handled/Nacked row.
// ---------------------------------------------------------------------

// pcuActReadGrant installs a cacheable copy and binds all waiting loads.
func pcuActReadGrant(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	txn := rd.Payload.(*pcuTxn)
	st := stateS
	if m.Excl {
		st = stateE
	}
	p.install(m.Line, m.Data, st)
	p.sendAfter(p.params.TagLatency, p.home(m.Line),
		&Msg{Type: MsgUnblock, Line: m.Line, Requester: p.id})
	loads := txn.loads
	p.mshrs.Free(rd)
	for _, lw := range loads {
		p.data.LoadDone(p.now, lw.token, m.Data.Get(lw.addr), false)
	}
}

// pcuActTearoff delivers uncacheable data: nothing is installed, no
// Unblock is owed, and only ordered loads may consume the value.
func pcuActTearoff(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	txn := rd.Payload.(*pcuTxn)
	loads := txn.loads
	p.mshrs.Free(rd)
	p.Stats.TearoffsUsed++
	for _, lw := range loads {
		p.data.LoadDone(p.now, lw.token, m.Data.Get(lw.addr), true)
	}
}

// pcuActWriteGrant processes the DataExcl response of a GetX.
func pcuActWriteGrant(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	txn := wr.Payload.(*pcuTxn)
	txn.gotGrant = true
	txn.acksNeeded = m.AckCount
	if m.HasData {
		txn.data = m.Data
		txn.hasData = true
	}
	p.maybeCompleteWrite(wr)
}

// pcuActAck counts a direct or redirected invalidation acknowledgement.
func pcuActAck(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	wr.Payload.(*pcuTxn).acksGot++
	p.maybeCompleteWrite(wr)
}

// pcuActInv and pcuActInvWB process an invalidation from a writer or a
// directory eviction; only the WritersBlock variant may nack.
func pcuActInv(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	p.invalidate(m, wr, false)
}

func pcuActInvWB(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	p.invalidate(m, wr, true)
}

// invalidate drops the line (if present), queries the core for
// lockdowns, and produces either an InvAck (to the requester) or — when
// nacking is allowed — a Nack to the home directory.
func (p *PCU) invalidate(m *Msg, wr *cache.MSHR, nackAllowed bool) {
	p.Stats.InvsReceived++
	line := m.Line
	var data mem.LineData
	hadOwned := false
	if e := p.l2.Lookup(line); e != nil && e.State != stateInvalid {
		if e.State == stateE || e.State == stateM {
			hadOwned = true
			data = e.Data
		}
		p.dropLine(line)
	} else if wb, ok := p.wbBuf[line]; ok {
		hadOwned = true
		data = wb.data
		p.consumeWB(line, wb)
	}
	// An invalidation may target an upgrade in flight: the S copy (or
	// its ghost) is gone, so the eventual grant must carry data.
	if wr != nil {
		wr.Payload.(*pcuTxn).lostLine = true
	}

	if p.order.OnInvalidation(p.now, line) {
		if !nackAllowed {
			panicf("pcu %d: squash-mode core nacked an invalidation for %v", p.id, line)
		}
		p.Stats.Nacks++
		resp := &Msg{Type: MsgNack, Line: line, Requester: p.id}
		if hadOwned {
			resp.Data = data
			resp.HasData = true
		}
		p.sendAfter(p.params.TagLatency, p.home(line), resp)
		return
	}
	resp := &Msg{Type: MsgInvAck, Line: line, Requester: m.Requester}
	if hadOwned && m.Eviction {
		resp.Data = data
		resp.HasData = true
	}
	p.sendAfter(p.params.TagLatency, m.Requester, resp)
}

// pcuActFwdGetS serves a read forwarded to this owner: data to the
// requester, a clean copy to the directory, local downgrade to Shared.
// Reads never interact with lockdowns, so there is no WB variant.
func pcuActFwdGetS(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	data, ok := p.ownedData(m.Line)
	if !ok {
		panicf("pcu %d: FwdGetS for %v not owned", p.id, m.Line)
	}
	if e := p.l2.Lookup(m.Line); e != nil && e.State != stateInvalid {
		e.State = stateS
		e.Dirty = false
	}
	p.sendAfter(p.params.L1Latency, m.Requester,
		&Msg{Type: MsgData, Line: m.Line, Requester: m.Requester, Data: data, HasData: true})
	p.sendAfter(p.params.L1Latency, p.home(m.Line),
		&Msg{Type: MsgOwnerData, Line: m.Line, Requester: m.Requester, Data: data, HasData: true})
}

// pcuActFwdGetX and pcuActFwdGetXWB serve a write forwarded to this
// owner. With no lockdown the owner sends data+ack (AckCount 0) to the
// writer. Under a lockdown the WB variant sends the data but withholds
// the ack: AckCount 1 plus a Nack+Data to the directory, which enters
// WritersBlock (Figure 3.B).
func pcuActFwdGetX(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	p.forwardWrite(m, wr, false)
}

func pcuActFwdGetXWB(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	p.forwardWrite(m, wr, true)
}

func (p *PCU) forwardWrite(m *Msg, wr *cache.MSHR, nackAllowed bool) {
	data, ok := p.ownedData(m.Line)
	if !ok {
		panicf("pcu %d: FwdGetX for %v not owned", p.id, m.Line)
	}
	p.dropLine(m.Line)
	if wr != nil {
		wr.Payload.(*pcuTxn).lostLine = true
	}
	p.Stats.InvsReceived++
	nack := p.order.OnInvalidation(p.now, m.Line)
	if nack && !nackAllowed {
		panicf("pcu %d: squash-mode core nacked a forwarded write for %v", p.id, m.Line)
	}
	acks := 0
	if nack {
		acks = 1
	}
	p.sendAfter(p.params.L1Latency, m.Requester,
		&Msg{Type: MsgDataExcl, Line: m.Line, Requester: m.Requester, Data: data, HasData: true, AckCount: acks})
	if nack {
		p.Stats.Nacks++
		p.sendAfter(p.params.L1Latency, p.home(m.Line),
			&Msg{Type: MsgNack, Line: m.Line, Requester: p.id, Data: data, HasData: true})
	}
}

// pcuActPutAck completes an eviction: a normal ack frees the writeback
// entry; a stale ack frees it only once the racing forward is served.
func pcuActPutAck(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	wb, ok := p.wbBuf[m.Line]
	if !ok {
		return
	}
	if m.Stale && !wb.servedFwd {
		wb.staleAck = true
		return
	}
	delete(p.wbBuf, m.Line)
}

// pcuActHint marks the write transaction as blocked behind a
// WritersBlock so SoS loads bypass it (Section 3.5.2).
func pcuActHint(p *PCU, m *Msg, rd, wr *cache.MSHR) {
	if txn := wr.Payload.(*pcuTxn); !txn.blocked {
		txn.blocked = true
		p.blockedWrites++
	}
}

// pcuActHintStale drops a hint that lost the race with write completion.
func pcuActHintStale(p *PCU, m *Msg, rd, wr *cache.MSHR) {}

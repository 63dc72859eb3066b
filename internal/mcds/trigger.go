package mcds

import (
	"fmt"

	"repro/internal/tmsg"
	"repro/internal/tricore"
)

// CompKind selects what a comparator matches on.
type CompKind uint8

// Comparator kinds.
const (
	// CompPC matches retired instructions whose PC lies in [Lo, Hi).
	CompPC CompKind = iota
	// CompAddr matches data accesses whose effective address lies in
	// [Lo, Hi), optionally filtered by direction.
	CompAddr
	// CompData matches data accesses transferring a value in [Lo, Hi].
	CompData
)

// RW filters comparator matches by access direction.
type RW uint8

// Direction filters.
const (
	RWBoth RW = iota
	RWRead
	RWWrite
)

// Comparator observes one core's retire stream and asserts its signal on a
// match within the current cycle. It can also emit a trigger message per
// match (watchpoint messages).
type Comparator struct {
	Name string
	Core *CoreObs
	Kind CompKind
	Lo   uint32
	Hi   uint32
	Dir  RW

	Signal      Signal // asserted on match (may be NoSignal)
	EmitTrigger bool
	TriggerID   uint8

	Matches uint64
}

// AddComparator registers cmp. The core logs every retired instruction
// from then on: the comparator consumes the whole retire stream.
func (m *MCDS) AddComparator(cmp *Comparator) *Comparator {
	if cmp.Core == nil {
		panic(fmt.Sprintf("mcds: comparator %s has no core", cmp.Name))
	}
	cmp.Core.cpu.TraceEnabled = true
	m.comps = append(m.comps, cmp)
	m.pin()
	return cmp
}

func (cmp *Comparator) match(re *tricore.Retired) bool {
	switch cmp.Kind {
	case CompPC:
		return re.PC >= cmp.Lo && re.PC < cmp.Hi
	case CompAddr:
		if !re.HasMem {
			return false
		}
		if cmp.Dir == RWRead && re.Write || cmp.Dir == RWWrite && !re.Write {
			return false
		}
		return re.EA >= cmp.Lo && re.EA < cmp.Hi
	case CompData:
		return re.HasMem && re.Data >= cmp.Lo && re.Data <= cmp.Hi
	}
	return false
}

func (cmp *Comparator) eval(m *MCDS, retired []tricore.Retired, cycle uint64) {
	for i := range retired {
		if cmp.match(&retired[i]) {
			cmp.Matches++
			m.set(cmp.Signal)
			if cmp.EmitTrigger {
				msg := tmsg.Msg{Kind: tmsg.KindTrigger, Src: cmp.Core.id,
					Cycle: retired[i].Cycle, TriggerID: cmp.TriggerID}
				m.emit(&msg)
			}
		}
	}
}

// Term is a conjunction: all of All asserted and none of None.
type Term struct {
	All  []Signal
	None []Signal
}

// Expr is a Boolean condition over the signal cross-connect in disjunctive
// normal form — the "very complex conditions using Boolean expressions" of
// the paper's trigger unit. An empty Expr is never true.
type Expr struct {
	Any []Term
}

// On builds the expression "signal s is asserted".
func On(s Signal) Expr { return Expr{Any: []Term{{All: []Signal{s}}}} }

// AllOf builds the conjunction of the given signals.
func AllOf(ss ...Signal) Expr { return Expr{Any: []Term{{All: ss}}} }

// AnyOf builds the disjunction of the given signals.
func AnyOf(ss ...Signal) Expr {
	e := Expr{}
	for _, s := range ss {
		e.Any = append(e.Any, Term{All: []Signal{s}})
	}
	return e
}

// AndNot returns e with the extra requirement that s is NOT asserted.
func (e Expr) AndNot(s Signal) Expr {
	out := Expr{Any: make([]Term, len(e.Any))}
	for i, t := range e.Any {
		out.Any[i] = Term{All: t.All, None: append(append([]Signal(nil), t.None...), s)}
	}
	return out
}

// Or returns the disjunction of e and f.
func (e Expr) Or(f Expr) Expr {
	return Expr{Any: append(append([]Term(nil), e.Any...), f.Any...)}
}

// Eval evaluates the expression against the current signal vector.
func (e Expr) Eval(signals []bool) bool {
	for _, t := range e.Any {
		ok := true
		for _, s := range t.All {
			if s < 0 || !signals[s] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, s := range t.None {
			if s >= 0 && signals[s] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ActionKind selects what a trigger action does.
type ActionKind uint8

// Action kinds.
const (
	ActEnableCounter ActionKind = iota
	ActDisableCounter
	ActFlowTraceOn
	ActFlowTraceOff
	ActDataTraceOn
	ActDataTraceOff
	ActEmitTrigger
	ActSetSignal
	// ActBreak halts the observed core (OCDS run control): "since the
	// on-chip trace memory is limited, it is very important to be able to
	// trigger close to the point of interest". Unlike observation,
	// breaking is intrusive by design.
	ActBreak
)

// Action is one trigger consequence.
type Action struct {
	Kind      ActionKind
	Counter   *Counter // ActEnableCounter / ActDisableCounter
	Core      *CoreObs // trace on/off actions
	TriggerID uint8    // ActEmitTrigger
	Src       uint8    // ActEmitTrigger source id
	Signal    Signal   // ActSetSignal
}

func (m *MCDS) apply(a Action, cycle uint64) {
	switch a.Kind {
	case ActEnableCounter:
		if !a.Counter.Enabled() {
			a.Counter.SetEnabled(true)
			a.Counter.Reset()
		}
	case ActDisableCounter:
		a.Counter.SetEnabled(false)
	case ActFlowTraceOn:
		a.Core.FlowTrace = true
		a.Core.needSync = true
	case ActFlowTraceOff:
		a.Core.FlowTrace = false
	case ActDataTraceOn:
		a.Core.DataTrace = true
	case ActDataTraceOff:
		a.Core.DataTrace = false
	case ActEmitTrigger:
		msg := tmsg.Msg{Kind: tmsg.KindTrigger, Src: a.Src, Cycle: cycle, TriggerID: a.TriggerID}
		m.emit(&msg)
	case ActSetSignal:
		m.set(a.Signal)
	case ActBreak:
		a.Core.cpu.DebugBreak()
	}
}

// TriggerRule applies actions whenever its condition holds.
type TriggerRule struct {
	Name string
	When Expr
	Do   []Action
	Once bool // fire at most once

	Fired uint64
}

// AddRule registers a trigger rule.
func (m *MCDS) AddRule(r *TriggerRule) *TriggerRule {
	m.rules = append(m.rules, r)
	m.pin()
	return r
}

func (r *TriggerRule) tick(m *MCDS, cycle uint64) {
	if r.Once && r.Fired > 0 {
		return
	}
	if r.When.Eval(m.signals) {
		r.Fired++
		for _, a := range r.Do {
			m.apply(a, cycle)
		}
	}
}

// StateMachine is a trigger state machine: while in a state its state
// signal is asserted; transitions fire on expressions and run actions.
type StateMachine struct {
	Name        string
	stateSigs   []Signal
	transitions []Transition
	cur         int

	Moves uint64
}

// Transition moves the machine from From to To when When holds, running Do.
type Transition struct {
	From int
	When Expr
	To   int
	Do   []Action
}

// AddStateMachine creates a machine with the named states (state 0 is the
// initial state). State signals are allocated as "<name>.<state>".
func (m *MCDS) AddStateMachine(name string, states []string) *StateMachine {
	if len(states) == 0 {
		panic("mcds: state machine needs at least one state")
	}
	sm := &StateMachine{Name: name}
	for _, st := range states {
		sm.stateSigs = append(sm.stateSigs, m.AllocSignal(name+"."+st))
	}
	m.sms = append(m.sms, sm)
	m.pin()
	return sm
}

// AddTransition appends a transition.
func (sm *StateMachine) AddTransition(t Transition) {
	if t.From < 0 || t.From >= len(sm.stateSigs) || t.To < 0 || t.To >= len(sm.stateSigs) {
		panic(fmt.Sprintf("mcds: %s transition out of range", sm.Name))
	}
	sm.transitions = append(sm.transitions, t)
}

// State returns the current state index.
func (sm *StateMachine) State() int { return sm.cur }

// StateSignal returns the signal asserted while the machine is in state i.
func (sm *StateMachine) StateSignal(i int) Signal { return sm.stateSigs[i] }

func (sm *StateMachine) tick(m *MCDS, cycle uint64) {
	// Assert the current state's signal, then evaluate transitions; the
	// first matching transition wins.
	m.set(sm.stateSigs[sm.cur])
	for _, t := range sm.transitions {
		if t.From == sm.cur && t.When.Eval(m.signals) {
			sm.cur = t.To
			sm.Moves++
			for _, a := range t.Do {
				m.apply(a, cycle)
			}
			m.set(sm.stateSigs[sm.cur])
			break
		}
	}
}

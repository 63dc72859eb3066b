package tricore

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
)

// opFn is one dispatch handler: the full architectural and timing effect
// of a single instruction. A handler returns true when control flow
// changed (ending the issue bundle). Both the block executor and the
// per-word reference path (execute) index the one handler table by opcode
// — one implementation of the semantics, so the paths cannot drift apart.
type opFn func(c *CPU, now uint64, in isa.Instr) bool

// handlers is the dispatch table, indexed by opcode. Sparse array-literal
// form keeps each op next to its handler; init verifies the table is total
// so a valid instruction can never hit a nil entry.
var handlers = [isa.NumOps]opFn{
	isa.OpNOP:  execNOP,
	isa.OpMOVI: execMOVI,
	isa.OpMOVH: execMOVH,
	isa.OpORIL: execORIL,
	isa.OpADD:  execADD,
	isa.OpSUB:  execSUB,
	isa.OpAND:  execAND,
	isa.OpOR:   execOR,
	isa.OpXOR:  execXOR,
	isa.OpSHL:  execSHL,
	isa.OpSHR:  execSHR,
	isa.OpSRA:  execSRA,
	isa.OpMUL:  execMUL,
	isa.OpMAC:  execMAC,
	isa.OpSLT:  execSLT,
	isa.OpSLTU: execSLTU,
	isa.OpADDI: execADDI,
	isa.OpANDI: execANDI,
	isa.OpORI:  execORI,
	isa.OpXORI: execXORI,
	isa.OpSHLI: execSHLI,
	isa.OpSHRI: execSHRI,
	isa.OpSLTI: execSLTI,
	isa.OpLEA:  execLEA,
	isa.OpLDW:  execLoad,
	isa.OpLDB:  execLoad,
	isa.OpSTW:  execStore,
	isa.OpSTB:  execStore,
	isa.OpBEQ:  execBEQ,
	isa.OpBNE:  execBNE,
	isa.OpBLT:  execBLT,
	isa.OpBGE:  execBGE,
	isa.OpBLTU: execBLTU,
	isa.OpBGEU: execBGEU,
	isa.OpLOOP: execLOOP,
	isa.OpJ:    execJ,
	isa.OpCALL: execCALL,
	isa.OpJR:   execJR,
	isa.OpMFCR: execMFCR,
	isa.OpMTCR: execMTCR,
	isa.OpRFE:  execRFE,
	isa.OpHALT: execHALT,
	isa.OpDBG:  execDBG,
}

func init() {
	for op, fn := range handlers {
		if fn == nil {
			panic(fmt.Sprintf("tricore: no handler for opcode %v", isa.Op(op)))
		}
	}
}

// execute dispatches one instruction through the handler table. The
// per-word reference path calls it after validating the instruction.
func (c *CPU) execute(now uint64, in isa.Instr) bool {
	return handlers[in.Op](c, now, in)
}

// fin is the shared epilogue for straight-line instructions: retire,
// advance the PC, keep the bundle going.
func (c *CPU) fin(now uint64, in isa.Instr) bool {
	c.retire(now, c.pc, in, Retired{})
	c.pc += 4
	return false
}

func execNOP(c *CPU, now uint64, in isa.Instr) bool {
	return c.fin(now, in)
}

func execDBG(c *CPU, now uint64, in isa.Instr) bool {
	if c.OnDbg != nil {
		c.OnDbg(now, c.pc)
	}
	return c.fin(now, in)
}

func execMOVI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execMOVH(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, uint32(in.Imm)<<16, now+1, false)
	return c.fin(now, in)
}

func execORIL(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Rd]|uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execADD(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]+c.regs[in.Rb], now+1, false)
	return c.fin(now, in)
}

func execSUB(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]-c.regs[in.Rb], now+1, false)
	return c.fin(now, in)
}

func execAND(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]&c.regs[in.Rb], now+1, false)
	return c.fin(now, in)
}

func execOR(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]|c.regs[in.Rb], now+1, false)
	return c.fin(now, in)
}

func execXOR(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]^c.regs[in.Rb], now+1, false)
	return c.fin(now, in)
}

func execSHL(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]<<(c.regs[in.Rb]&31), now+1, false)
	return c.fin(now, in)
}

func execSHR(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]>>(c.regs[in.Rb]&31), now+1, false)
	return c.fin(now, in)
}

func execSRA(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, uint32(int32(c.regs[in.Ra])>>(c.regs[in.Rb]&31)), now+1, false)
	return c.fin(now, in)
}

func execMUL(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]*c.regs[in.Rb], now+mulLatency, false)
	return c.fin(now, in)
}

func execMAC(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Rd]+c.regs[in.Ra]*c.regs[in.Rb], now+mulLatency, false)
	return c.fin(now, in)
}

func execSLT(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, b2u(int32(c.regs[in.Ra]) < int32(c.regs[in.Rb])), now+1, false)
	return c.fin(now, in)
}

func execSLTU(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, b2u(c.regs[in.Ra] < c.regs[in.Rb]), now+1, false)
	return c.fin(now, in)
}

func execADDI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]+uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execANDI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]&uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execORI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]|uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execXORI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]^uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execSHLI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]<<(uint32(in.Imm)&31), now+1, false)
	return c.fin(now, in)
}

func execSHRI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]>>(uint32(in.Imm)&31), now+1, false)
	return c.fin(now, in)
}

func execSLTI(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, b2u(int32(c.regs[in.Ra]) < in.Imm), now+1, false)
	return c.fin(now, in)
}

func execLEA(c *CPU, now uint64, in isa.Instr) bool {
	c.writeReg(in.Rd, c.regs[in.Ra]+uint32(in.Imm), now+1, false)
	return c.fin(now, in)
}

func execLoad(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	ea := c.regs[in.Ra] + uint32(in.Imm)
	size := 4
	if in.Op == isa.OpLDB {
		size = 1
	}
	buf := c.memBuf[:size]
	ready := c.DMI.Load(now, ea, buf)
	v := uint32(buf[0])
	if size == 4 {
		v |= uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	}
	if ready > now {
		// Miss or bus access: the LS pipe blocks.
		c.stall(now, ready, sim.EvStallData)
	}
	c.writeReg(in.Rd, v, maxU64(ready, now)+loadUseLatency, true)
	c.retire(now, pc, in, Retired{HasMem: true, EA: ea, Data: v})
	c.pc = pc + 4
	return ready > now // a stalled load ends the bundle
}

func execStore(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	ea := c.regs[in.Ra] + uint32(in.Imm)
	v := c.regs[in.Rd]
	c.memBuf[0], c.memBuf[1], c.memBuf[2], c.memBuf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	size := 4
	if in.Op == isa.OpSTB {
		size = 1
	}
	// Single-entry posted store buffer: a second store while one is
	// outstanding stalls until the first drains.
	start := now
	if c.storeBusyUntil > now {
		c.stall(now, c.storeBusyUntil, sim.EvStallData)
		start = c.storeBusyUntil
	}
	c.storeBusyUntil = c.DMI.Store(start, ea, c.memBuf[:size])
	c.retire(now, pc, in, Retired{HasMem: true, EA: ea, Write: true, Data: v})
	c.pc = pc + 4
	return c.stallUntil > now
}

// condBranch applies the shared conditional-branch timing model: static
// prediction, backward taken / forward not taken.
func condBranch(c *CPU, now uint64, in isa.Instr, taken bool) bool {
	pc := c.pc
	backward := in.Imm < 0
	target := pc + uint32(in.Imm)*4
	if taken {
		c.counters.Inc(sim.EvBranchTaken)
		c.pc = target
		c.fetchValid = false
		if backward {
			c.stall(now, now+takenPenalty, sim.EvStallFetch)
		} else {
			c.counters.Inc(sim.EvBranchMiss)
			c.stall(now, now+mispredictFlush, sim.EvStallFetch)
		}
		c.retire(now, pc, in, Retired{Taken: true, Target: target})
		return true
	}
	if backward {
		c.counters.Inc(sim.EvBranchMiss)
		c.stall(now, now+mispredictFlush, sim.EvStallFetch)
		c.retire(now, pc, in, Retired{})
		c.pc = pc + 4
		return true
	}
	c.retire(now, pc, in, Retired{})
	c.pc = pc + 4
	return false
}

func execBEQ(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, c.regs[in.Ra] == c.regs[in.Rb])
}

func execBNE(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, c.regs[in.Ra] != c.regs[in.Rb])
}

func execBLT(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, int32(c.regs[in.Ra]) < int32(c.regs[in.Rb]))
}

func execBGE(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, int32(c.regs[in.Ra]) >= int32(c.regs[in.Rb]))
}

func execBLTU(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, c.regs[in.Ra] < c.regs[in.Rb])
}

func execBGEU(c *CPU, now uint64, in isa.Instr) bool {
	return condBranch(c, now, in, c.regs[in.Ra] >= c.regs[in.Rb])
}

func execLOOP(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	v := c.regs[in.Ra] - 1
	c.writeReg(in.Ra, v, now+1, false)
	if v != 0 {
		target := pc + uint32(in.Imm)*4
		c.counters.Inc(sim.EvBranchTaken)
		c.pc = target
		c.fetchValid = false
		// Loop pipe: zero-overhead taken back-branch.
		c.retire(now, pc, in, Retired{Taken: true, Target: target})
		return true
	}
	// Loop exit: one bubble (the loop pipe predicted taken).
	c.stall(now, now+takenPenalty, sim.EvStallFetch)
	c.retire(now, pc, in, Retired{})
	c.pc = pc + 4
	return true
}

func execJ(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	target := pc + uint32(in.Off24)*4
	c.counters.Inc(sim.EvBranchTaken)
	c.pc = target
	c.fetchValid = false
	c.stall(now, now+takenPenalty, sim.EvStallFetch)
	c.retire(now, pc, in, Retired{Taken: true, Target: target})
	return true
}

func execCALL(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	target := pc + uint32(in.Off24)*4
	c.writeReg(isa.RegLink, pc+4, now+1, false)
	c.counters.Inc(sim.EvBranchTaken)
	c.pc = target
	c.fetchValid = false
	c.stall(now, now+takenPenalty, sim.EvStallFetch)
	c.retire(now, pc, in, Retired{Taken: true, Target: target})
	return true
}

func execJR(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	target := c.regs[in.Ra]
	c.counters.Inc(sim.EvBranchTaken)
	c.pc = target
	c.fetchValid = false
	c.stall(now, now+indirectPenalty, sim.EvStallFetch)
	c.retire(now, pc, in, Retired{Taken: true, Target: target})
	return true
}

func execMFCR(c *CPU, now uint64, in isa.Instr) bool {
	n := in.Imm // < isa.NumCSRs: Instr.Valid holds for every issued instruction
	v := c.csr[n]
	if n == isa.CsrCCNT {
		v = uint32(now)
	}
	c.writeReg(in.Rd, v, now+1, false)
	return c.fin(now, in)
}

func execMTCR(c *CPU, now uint64, in isa.Instr) bool {
	n := in.Imm // < isa.NumCSRs: Instr.Valid holds for every issued instruction
	if n != isa.CsrCCNT && n != isa.CsrCoreID {
		c.csr[n] = c.regs[in.Ra]
	}
	return c.fin(now, in)
}

func execRFE(c *CPU, now uint64, in isa.Instr) bool {
	pc := c.pc
	if len(c.shadow) == 0 {
		// RFE outside an interrupt stops the core; the PCP uses this as
		// "channel done".
		c.halted = true
		c.retire(now, pc, in, Retired{})
		return true
	}
	fr := c.shadow[len(c.shadow)-1]
	c.shadow = c.shadow[:len(c.shadow)-1]
	c.csr[isa.CsrICR] = fr.icr
	c.pc = fr.pc
	c.fetchValid = false
	c.counters.Inc(sim.EvInterruptExit)
	c.stall(now, now+indirectPenalty, sim.EvStallFetch)
	c.retire(now, pc, in, Retired{Taken: true, Target: fr.pc})
	return true
}

func execHALT(c *CPU, now uint64, in isa.Instr) bool {
	c.halted = true
	c.retire(now, c.pc, in, Retired{})
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

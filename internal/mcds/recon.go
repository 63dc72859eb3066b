package mcds

import "repro/internal/tmsg"

// Reconstruct recovers the executed instruction address sequence of one
// trace source from its flow messages (tool-side processing of the
// cycle-accurate program trace). Reconstruction starts at the first Sync
// for the source; an Overflow message invalidates the anchor until the
// next Sync, so losses never fabricate instructions.
//
// Instructions are fixed 4-byte; a flow message with ICount=n means "n
// instructions retired sequentially starting at the current anchor, the
// last being a taken change of flow to PC".
func Reconstruct(msgs []tmsg.Msg, src uint8) []uint32 {
	var pcs []uint32
	var pc uint32
	anchored := false
	for i := range msgs {
		m := &msgs[i]
		if m.Kind == tmsg.KindOverflow {
			anchored = false
			continue
		}
		if m.Src != src {
			continue
		}
		switch m.Kind {
		case tmsg.KindSync:
			pc = m.PC
			anchored = true
		case tmsg.KindFlow:
			if !anchored {
				continue
			}
			for n := uint64(0); n < m.ICount; n++ {
				pcs = append(pcs, pc)
				pc += 4
			}
			pc = m.PC
		}
	}
	return pcs
}

package sim

// Event identifies a performance-relevant hardware event class. The MCDS
// observation blocks tap these directly from the component models, exactly
// as the paper's AUDO FUTURE MCDS taps "performance relevant event sources
// like cache hits/misses, bus contentions, etc." (Section 3).
type Event uint8

// Hardware event classes observable by the MCDS. The set mirrors the
// "essential parameters for CPU system performance" list of Section 5.
const (
	EvNone Event = iota

	// Core events (per-core observation block inputs).
	EvInstrExecuted  // one count per retired instruction (0..3 per cycle on TriCore)
	EvCycle          // one count per clock cycle (resolution basis for IPC)
	EvStallCycle     // CPU stalled this cycle (any reason)
	EvStallFetch     // stall attributable to instruction fetch
	EvStallData      // stall attributable to a data access
	EvBranchTaken    // taken change of flow
	EvBranchMiss     // branch mispredicted / flow change penalty paid
	EvInterruptEntry // interrupt service entered
	EvInterruptExit  // interrupt service left

	// Instruction-side memory events.
	EvICacheAccess
	EvICacheHit
	EvICacheMiss
	EvIFlashAccess   // instruction fetch reached the program flash
	EvIPrefetchHit   // fetch served from a flash read/prefetch buffer
	EvIScratchAccess // fetch served from program scratchpad

	// Data-side memory events.
	EvDCacheAccess
	EvDCacheHit
	EvDCacheMiss
	EvDFlashRead     // CPU data read that reached the program/data flash
	EvDPrefetchHit   // data-side flash buffer hit
	EvDScratchAccess // data access served by data scratchpad
	EvDSRAMAccess    // data access served by on-chip SRAM over the bus
	EvDPeriphAccess  // data access to a peripheral register

	// Bus events (bus observation block inputs).
	EvBusRequest    // a master requested the bus
	EvBusGrant      // a master was granted the bus
	EvBusContention // a master waited at least one cycle for grant
	EvBusWaitCycle  // one count per cycle a master spent waiting

	// Flash port arbitration.
	EvFlashPortConflict // code and data port competed for the flash array

	// DMA and PCP activity.
	EvDMATransfer
	EvPCPInstr
	EvPCPCycle
	EvPCPStall

	evMax // number of event classes; keep last
)

// NumEvents is the number of defined event classes.
const NumEvents = int(evMax)

var eventNames = [...]string{
	EvNone:              "none",
	EvInstrExecuted:     "instr_executed",
	EvCycle:             "cycle",
	EvStallCycle:        "stall_cycle",
	EvStallFetch:        "stall_fetch",
	EvStallData:         "stall_data",
	EvBranchTaken:       "branch_taken",
	EvBranchMiss:        "branch_miss",
	EvInterruptEntry:    "interrupt_entry",
	EvInterruptExit:     "interrupt_exit",
	EvICacheAccess:      "icache_access",
	EvICacheHit:         "icache_hit",
	EvICacheMiss:        "icache_miss",
	EvIFlashAccess:      "iflash_access",
	EvIPrefetchHit:      "iprefetch_hit",
	EvIScratchAccess:    "iscratch_access",
	EvDCacheAccess:      "dcache_access",
	EvDCacheHit:         "dcache_hit",
	EvDCacheMiss:        "dcache_miss",
	EvDFlashRead:        "dflash_read",
	EvDPrefetchHit:      "dprefetch_hit",
	EvDScratchAccess:    "dscratch_access",
	EvDSRAMAccess:       "dsram_access",
	EvDPeriphAccess:     "dperiph_access",
	EvBusRequest:        "bus_request",
	EvBusGrant:          "bus_grant",
	EvBusContention:     "bus_contention",
	EvBusWaitCycle:      "bus_wait_cycle",
	EvFlashPortConflict: "flash_port_conflict",
	EvDMATransfer:       "dma_transfer",
	EvPCPInstr:          "pcp_instr",
	EvPCPCycle:          "pcp_cycle",
	EvPCPStall:          "pcp_stall",
}

// String returns the lower_snake name of the event class.
func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return "event_unknown"
}

// Counters is a fixed-size per-event counter array. Components own one and
// bump it as events occur; observation hardware (and tests asserting ground
// truth) read it. The zero value is ready to use.
type Counters [NumEvents]uint64

// Add records n occurrences of event e.
func (c *Counters) Add(e Event, n uint64) { c[e] += n }

// Inc records one occurrence of event e.
func (c *Counters) Inc(e Event) { c[e]++ }

// Get returns the total count of event e.
func (c *Counters) Get(e Event) uint64 { return c[e] }

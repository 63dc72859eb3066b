package bus

// Alias exposes an existing target under a shifted address window. It
// implements the TriCore-style segment aliasing where segment 0xA is the
// uncached view of the flash mapped at segment 0x8: the SoC maps the same
// port twice, once directly and once behind an Alias whose delta rebases
// incoming addresses into the target's native window.
type Alias struct {
	target Target
	delta  uint32 // added to incoming addresses (mod 2^32)
}

// NewAlias wraps target so that an access at addr reaches it as addr+delta.
func NewAlias(target Target, delta uint32) *Alias {
	return &Alias{target: target, delta: delta}
}

// Name returns the aliased target's name with a marker.
func (a *Alias) Name() string { return a.target.Name() + "~alias" }

// Access rebases the request address and forwards it.
func (a *Alias) Access(grant uint64, req *Request) uint64 {
	shifted := *req
	shifted.Addr = req.Addr + a.delta
	// The copy shares Data's backing array, so reads land in the caller's
	// buffer.
	return a.target.Access(grant, &shifted)
}

package multilist

// ReadCheck exposes the read walk's version-check interval to the external
// tests.
const ReadCheck = readCheck

// Epoch returns the structure epoch S (no simulated time).
func (l *List) Epoch() uint64 { return l.cc.Logical(l.mem.Peek(l.epoch)) }

package core

import "strconv"

// Name is how a thread or a port keeps its name: a base that many records
// share plus an optional decimal index, so naming a session's thread or
// port builds no string. String builds the text when something prints
// it. The index reads spliced in before the base's last tail bytes, which
// are usually none: IndexedName("thread-", 7) reads "thread-7", and
// NameOf("storm").Suffixed("-reply").Index(5) reads "storm5-reply".
//
// Thread stores a Name's three fields apart, the index and tail in its
// flag bytes' padding, so its name costs it no more than the string it
// replaced.
type Name struct {
	base string
	// idx is the index plus one; zero means the name has none.
	idx uint32
	// tail is how many of base's last bytes follow the index.
	tail uint8
}

// NameOf returns the plain name s.
func NameOf(s string) Name { return Name{base: s} }

// IndexedName returns base followed by the decimal index i (i >= 0).
func IndexedName(base string, i int) Name { return NameOf(base).Index(i) }

// Index returns n's base and tail with index i (i >= 0): every name of a
// family shares the one base string.
func (n Name) Index(i int) Name {
	n.idx = uint32(i) + 1
	return n
}

// Suffixed returns n with suffix following its index. It builds one
// string, the new base, so a family of names calls it once and indexes
// the result.
func (n Name) Suffixed(suffix string) Name {
	if int(n.tail)+len(suffix) > 255 {
		panic("core: name suffix longer than 255 bytes")
	}
	n.base += suffix
	n.tail += uint8(len(suffix))
	return n
}

// Base returns the name's shared base, tail included.
func (n Name) Base() string { return n.base }

// WithBase returns n's index and tail on base, which must end with n's
// own base: a caller naming many records under one prefix builds
// prefix+n.Base() once per distinct base and passes it here.
func (n Name) WithBase(base string) Name {
	n.base = base
	return n
}

// String builds the name's text: its base when it has no index.
func (n Name) String() string {
	if n.idx == 0 {
		return n.base
	}
	cut := len(n.base) - int(n.tail)
	var digits [20]byte
	return n.base[:cut] + string(strconv.AppendUint(digits[:0], uint64(n.idx-1), 10)) + n.base[cut:]
}

// Package bitvec implements fixed-width, bit-true two's-complement values.
//
// Every architectural quantity in this repository — storage contents,
// instruction words, RTL temporaries, non-terminal return values — is a
// bitvec.Value. The XSIM simulators of the paper are "bit-true by
// construction"; this package is the construction. Values carry an explicit
// width in bits and all arithmetic wraps modulo 2^width, exactly as the
// corresponding hardware datapath would.
//
// Values up to 64 bits wide are stored inline (no heap allocation), which
// keeps the generated simulators fast; wider values use a word slice.
package bitvec

import (
	"fmt"
	"strings"
)

// MaxWidth bounds the width of a single value. It is far above anything an
// ISDL description needs (the widest practical machine word plus headroom
// for concatenated VLIW instruction words).
const MaxWidth = 1 << 16

// Value is a fixed-width bit vector. The zero Value has width 0 and no bits;
// it is returned by failed operations and is not a valid architectural value.
// Values are immutable: all operations return new Values.
type Value struct {
	width int
	// small holds the bits when width <= 64; otherwise words holds them
	// little-endian, 64 per word. Bits at positions >= width are always
	// zero (canonical form).
	small uint64
	words []uint64
}

func wordsFor(width int) int { return (width + 63) / 64 }

// mask64 returns the canonical mask for an inline value of the given width
// (1..64).
func mask64(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// New returns a zero value of the given width. It panics if width is not in
// [1, MaxWidth]; widths are static properties of an ISDL description and a
// bad one is a programming error, not a runtime condition.
func New(width int) Value {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitvec: invalid width %d", width))
	}
	if width <= 64 {
		return Value{width: width}
	}
	return Value{width: width, words: make([]uint64, wordsFor(width))}
}

// small64 builds an inline value, masking to width.
func small64(width int, v uint64) Value {
	return Value{width: width, small: v & mask64(width)}
}

// FromUint64 returns a value of the given width holding v truncated to width
// bits.
func FromUint64(width int, v uint64) Value {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitvec: invalid width %d", width))
	}
	if width <= 64 {
		return small64(width, v)
	}
	r := New(width)
	r.words[0] = v
	return r
}

// FromInt64 returns a value of the given width holding v sign-extended (or
// truncated) to width bits.
func FromInt64(width int, v int64) Value {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitvec: invalid width %d", width))
	}
	if width <= 64 {
		return small64(width, uint64(v))
	}
	r := New(width)
	u := uint64(v)
	for i := range r.words {
		r.words[i] = u
		if v >= 0 {
			u = 0
		} else {
			u = ^uint64(0)
		}
	}
	r.canon()
	return r
}

// FromWords returns a value of the given width using the supplied
// little-endian words. Extra high bits are truncated.
func FromWords(width int, words []uint64) Value {
	r := New(width)
	if r.words == nil {
		if len(words) > 0 {
			r.small = words[0] & mask64(width)
		}
		return r
	}
	copy(r.words, words)
	r.canon()
	return r
}

// canon zeroes bits above width.
func (v *Value) canon() {
	if v.width == 0 {
		return
	}
	if v.words == nil {
		v.small &= mask64(v.width)
		return
	}
	if rem := v.width % 64; rem != 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// word returns the i-th 64-bit word.
func (v Value) word(i int) uint64 {
	if v.words == nil {
		if i == 0 {
			return v.small
		}
		return 0
	}
	if i < len(v.words) {
		return v.words[i]
	}
	return 0
}

// Width reports the width of v in bits.
func (v Value) Width() int { return v.width }

// IsZero reports whether every bit of v is zero.
func (v Value) IsZero() bool {
	if v.words == nil {
		return v.small == 0
	}
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns bit i (0 = least significant). Out-of-range bits read as 0.
func (v Value) Bit(i int) uint {
	if i < 0 || i >= v.width {
		return 0
	}
	return uint(v.word(i/64)>>(uint(i)%64)) & 1
}

// WithBit returns a copy of v with bit i set to b (b is 0 or 1).
func (v Value) WithBit(i int, b uint) Value {
	if i < 0 || i >= v.width {
		return v
	}
	r := v.clone()
	if r.words == nil {
		if b&1 == 1 {
			r.small |= 1 << uint(i)
		} else {
			r.small &^= 1 << uint(i)
		}
		return r
	}
	if b&1 == 1 {
		r.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		r.words[i/64] &^= 1 << (uint(i) % 64)
	}
	return r
}

func (v Value) clone() Value {
	if v.words == nil {
		return v
	}
	r := Value{width: v.width, words: make([]uint64, len(v.words))}
	copy(r.words, v.words)
	return r
}

// Uint64 returns the low 64 bits of v.
func (v Value) Uint64() uint64 { return v.word(0) }

// Int64 returns the value of v interpreted as a signed two's-complement
// number, truncated to 64 bits of magnitude.
func (v Value) Int64() int64 {
	u := v.Uint64()
	if v.width < 64 {
		if v.Bit(v.width-1) == 1 {
			u |= ^uint64(0) << uint(v.width)
		}
	}
	return int64(u)
}

// Sign reports whether the most significant (sign) bit of v is set.
func (v Value) Sign() bool { return v.Bit(v.width-1) == 1 }

// Eq reports whether v and o have identical width and bits.
func (v Value) Eq(o Value) bool {
	if v.width != o.width {
		return false
	}
	if v.words == nil && o.words == nil {
		return v.small == o.small
	}
	n := wordsFor(v.width)
	for i := 0; i < n; i++ {
		if v.word(i) != o.word(i) {
			return false
		}
	}
	return true
}

// EqValue reports whether v and o represent the same unsigned number,
// ignoring width differences.
func (v Value) EqValue(o Value) bool {
	n := wordsFor(v.width)
	if m := wordsFor(o.width); m > n {
		n = m
	}
	for i := 0; i < n; i++ {
		if v.word(i) != o.word(i) {
			return false
		}
	}
	return true
}

func sameWidth(a, b Value, op string) {
	if a.width != b.width {
		panic(fmt.Sprintf("bitvec: %s width mismatch %d vs %d", op, a.width, b.width))
	}
}

// Add returns a+b mod 2^width. Panics if widths differ.
func (a Value) Add(b Value) Value {
	sameWidth(a, b, "add")
	if a.words == nil {
		return small64(a.width, a.small+b.small)
	}
	r, _ := a.AddCarry(b)
	return r
}

// AddCarry returns a+b mod 2^width and the carry out of the top bit.
func (a Value) AddCarry(b Value) (Value, bool) {
	sameWidth(a, b, "add")
	if a.words == nil {
		s := a.small + b.small
		var carry bool
		if a.width == 64 {
			carry = s < a.small
		} else {
			carry = s>>uint(a.width)&1 == 1
		}
		return small64(a.width, s), carry
	}
	r := New(a.width)
	var carry uint64
	for i := range r.words {
		aw, bw := a.words[i], b.words[i]
		s := aw + bw
		c1 := boolToU64(s < aw)
		s2 := s + carry
		c2 := boolToU64(s2 < s)
		r.words[i] = s2
		carry = c1 | c2
	}
	if rem := a.width % 64; rem != 0 {
		carry = (r.words[len(r.words)-1] >> uint(rem)) & 1
	}
	r.canon()
	return r, carry == 1
}

// Sub returns a-b mod 2^width.
func (a Value) Sub(b Value) Value {
	sameWidth(a, b, "sub")
	if a.words == nil {
		return small64(a.width, a.small-b.small)
	}
	r, _ := a.SubBorrow(b)
	return r
}

// SubBorrow returns a-b mod 2^width and whether the subtraction borrowed
// (i.e. a < b unsigned).
func (a Value) SubBorrow(b Value) (Value, bool) {
	sameWidth(a, b, "sub")
	if a.words == nil {
		return small64(a.width, a.small-b.small), a.small < b.small
	}
	r, _ := a.AddCarry(b.Not().Add(one(a.width)))
	borrow := a.CmpU(b) < 0
	return r, borrow
}

func one(width int) Value { return FromUint64(width, 1) }

// Neg returns the two's-complement negation of a.
func (a Value) Neg() Value {
	if a.words == nil {
		return small64(a.width, -a.small)
	}
	return New(a.width).Sub(a)
}

// Mul returns a*b mod 2^width.
func (a Value) Mul(b Value) Value {
	sameWidth(a, b, "mul")
	if a.words == nil {
		return small64(a.width, a.small*b.small)
	}
	r := New(a.width)
	n := len(r.words)
	for i := 0; i < n; i++ {
		if a.word(i) == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < n; j++ {
			hi, lo := mul64(a.word(i), b.word(j))
			s := r.words[i+j] + lo
			c := boolToU64(s < lo)
			s2 := s + carry
			c2 := boolToU64(s2 < s)
			r.words[i+j] = s2
			carry = hi + c + c2
		}
	}
	r.canon()
	return r
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	ll := al * bl
	lh := al * bh
	hl := ah * bl
	hh := ah * bh
	mid := lh + (ll >> 32)
	midc := boolToU64(mid < lh)
	mid2 := mid + hl
	midc += boolToU64(mid2 < mid)
	lo = (mid2 << 32) | (ll & mask)
	hi = hh + (mid2 >> 32) + (midc << 32)
	return hi, lo
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DivU returns a/b (unsigned). Division by zero yields an all-ones value, the
// conventional hardware result.
func (a Value) DivU(b Value) Value {
	sameWidth(a, b, "div")
	if a.words == nil {
		if b.small == 0 {
			return small64(a.width, ^uint64(0))
		}
		return small64(a.width, a.small/b.small)
	}
	q, _ := a.divmod(b)
	return q
}

// ModU returns a%b (unsigned). Modulo by zero yields a, the conventional
// hardware result.
func (a Value) ModU(b Value) Value {
	sameWidth(a, b, "mod")
	if a.words == nil {
		if b.small == 0 {
			return a
		}
		return small64(a.width, a.small%b.small)
	}
	_, r := a.divmod(b)
	return r
}

func (a Value) divmod(b Value) (q, r Value) {
	if b.IsZero() {
		return New(a.width).Not(), a.clone()
	}
	q = New(a.width)
	r = New(a.width)
	for i := a.width - 1; i >= 0; i-- {
		r = r.Shl(1)
		if a.Bit(i) == 1 {
			r.words[0] |= 1
		}
		if r.CmpU(b) >= 0 {
			r = r.Sub(b)
			q.words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return q, r
}

// And returns the bitwise AND of a and b.
func (a Value) And(b Value) Value {
	sameWidth(a, b, "and")
	if a.words == nil {
		return Value{width: a.width, small: a.small & b.small}
	}
	r := New(a.width)
	for i := range a.words {
		r.words[i] = a.words[i] & b.words[i]
	}
	return r
}

// Or returns the bitwise OR of a and b.
func (a Value) Or(b Value) Value {
	sameWidth(a, b, "or")
	if a.words == nil {
		return Value{width: a.width, small: a.small | b.small}
	}
	r := New(a.width)
	for i := range a.words {
		r.words[i] = a.words[i] | b.words[i]
	}
	return r
}

// Xor returns the bitwise XOR of a and b.
func (a Value) Xor(b Value) Value {
	sameWidth(a, b, "xor")
	if a.words == nil {
		return Value{width: a.width, small: a.small ^ b.small}
	}
	r := New(a.width)
	for i := range a.words {
		r.words[i] = a.words[i] ^ b.words[i]
	}
	return r
}

// Not returns the bitwise complement of a.
func (a Value) Not() Value {
	if a.words == nil {
		return small64(a.width, ^a.small)
	}
	r := New(a.width)
	for i := range a.words {
		r.words[i] = ^a.words[i]
	}
	r.canon()
	return r
}

// Amount returns v's full unsigned value as a shift amount for Shl, ShrL
// and ShrA. Every amount at or beyond a value's width shifts all of its
// bits out, so an amount above MaxWidth reads as MaxWidth.
func (v Value) Amount() int {
	if v.Uint64() > MaxWidth {
		return MaxWidth
	}
	for i := 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return MaxWidth
		}
	}
	return int(v.Uint64())
}

// Shl returns a shifted left by n >= 0 bits; vacated bits are zero.
func (a Value) Shl(n int) Value {
	if n >= a.width {
		return New(a.width)
	}
	if a.words == nil {
		return small64(a.width, a.small<<uint(n))
	}
	r := New(a.width)
	wordShift, bitShift := n/64, uint(n%64)
	for i := len(r.words) - 1; i >= wordShift; i-- {
		w := a.words[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			w |= a.words[i-wordShift-1] >> (64 - bitShift)
		}
		r.words[i] = w
	}
	r.canon()
	return r
}

// ShrL returns a logically shifted right by n >= 0 bits; vacated bits are
// zero.
func (a Value) ShrL(n int) Value {
	if n >= a.width {
		return New(a.width)
	}
	if a.words == nil {
		return Value{width: a.width, small: a.small >> uint(n)}
	}
	r := New(a.width)
	wordShift, bitShift := n/64, uint(n%64)
	for i := 0; i+wordShift < len(a.words); i++ {
		w := a.words[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(a.words) {
			w |= a.words[i+wordShift+1] << (64 - bitShift)
		}
		r.words[i] = w
	}
	return r
}

// ShrA returns a arithmetically shifted right by n >= 0 bits; vacated bits
// copy the sign bit.
func (a Value) ShrA(n int) Value {
	if !a.Sign() {
		return a.ShrL(n)
	}
	if n >= a.width {
		return New(a.width).Not()
	}
	if a.words == nil {
		ones := ^(mask64(a.width) >> uint(n))
		return small64(a.width, a.small>>uint(n)|ones)
	}
	r := a.ShrL(n)
	for i := a.width - n; i < a.width; i++ {
		r.words[i/64] |= 1 << (uint(i) % 64)
	}
	return r
}

// CmpU compares a and b as unsigned numbers: -1 if a<b, 0 if equal, 1 if a>b.
func (a Value) CmpU(b Value) int {
	sameWidth(a, b, "cmp")
	if a.words == nil {
		switch {
		case a.small < b.small:
			return -1
		case a.small > b.small:
			return 1
		}
		return 0
	}
	for i := wordsFor(a.width) - 1; i >= 0; i-- {
		aw, bw := a.word(i), b.word(i)
		switch {
		case aw < bw:
			return -1
		case aw > bw:
			return 1
		}
	}
	return 0
}

// CmpS compares a and b as signed two's-complement numbers.
func (a Value) CmpS(b Value) int {
	sa, sb := a.Sign(), b.Sign()
	switch {
	case sa && !sb:
		return -1
	case !sa && sb:
		return 1
	}
	return a.CmpU(b)
}

// Slice returns bits [hi:lo] of v (inclusive, hi >= lo) as a new value of
// width hi-lo+1. It panics on an out-of-range slice; slice bounds come from
// validated ISDL text.
func (v Value) Slice(hi, lo int) Value {
	if lo < 0 || hi < lo || hi >= v.width {
		panic(fmt.Sprintf("bitvec: slice [%d:%d] of %d-bit value", hi, lo, v.width))
	}
	if v.words == nil {
		return small64(hi-lo+1, v.small>>uint(lo))
	}
	return v.ShrL(lo).Trunc(hi - lo + 1)
}

// Concat returns the concatenation hi:lo with hi in the most significant
// position; the result width is the sum of the operand widths.
func (hi Value) Concat(lo Value) Value {
	w := hi.width + lo.width
	if w <= 64 {
		return Value{width: w, small: hi.small<<uint(lo.width) | lo.small}
	}
	r := New(w)
	for i := 0; i < wordsFor(lo.width); i++ {
		r.words[i] = lo.word(i)
	}
	shifted := hi.ZeroExt(w).Shl(lo.width)
	for i := range r.words {
		r.words[i] |= shifted.word(i)
	}
	return r
}

// Trunc returns the low w bits of v. If w >= v.Width() the value is returned
// zero-extended (Trunc doubles as a width adjuster in either direction).
func (v Value) Trunc(w int) Value {
	if w == v.width {
		return v
	}
	if w <= 64 {
		return small64(w, v.word(0))
	}
	r := New(w)
	n := wordsFor(w)
	if v.words != nil {
		if n > len(v.words) {
			n = len(v.words)
		}
		copy(r.words, v.words[:n])
	} else {
		r.words[0] = v.small
	}
	r.canon()
	return r
}

// ZeroExt returns v zero-extended to width w (w >= v.Width(); otherwise it
// truncates).
func (v Value) ZeroExt(w int) Value { return v.Trunc(w) }

// SignExt returns v sign-extended to width w (w >= v.Width(); otherwise it
// truncates).
func (v Value) SignExt(w int) Value {
	if w <= v.width {
		return v.Trunc(w)
	}
	if !v.Sign() {
		return v.ZeroExt(w)
	}
	if w <= 64 {
		return small64(w, v.small|^mask64(v.width))
	}
	r := v.ZeroExt(w)
	for i := v.width; i < w; i++ {
		r.words[i/64] |= 1 << (uint(i) % 64)
	}
	return r
}

// String renders v as a width-annotated hexadecimal literal, e.g. 8'h3f.
func (v Value) String() string {
	if v.width == 0 {
		return "0'h0"
	}
	digits := (v.width + 3) / 4
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'h", v.width)
	started := false
	for i := digits - 1; i >= 0; i-- {
		nib := (v.word(i*4/64) >> (uint(i*4) % 64)) & 0xf
		if !started && nib == 0 && i != 0 {
			continue
		}
		started = true
		fmt.Fprintf(&sb, "%x", nib)
	}
	return sb.String()
}

// BitString renders v as a binary string, most significant bit first.
func (v Value) BitString() string {
	b := make([]byte, v.width)
	for i := 0; i < v.width; i++ {
		b[v.width-1-i] = '0' + byte(v.Bit(i))
	}
	return string(b)
}

// ParseBits parses a string of '0'/'1' characters (MSB first, as written in
// ISDL binary literals) into a value whose width is the string length.
func ParseBits(s string) (Value, error) {
	if len(s) == 0 {
		return Value{}, fmt.Errorf("bitvec: empty bit string")
	}
	if len(s) > MaxWidth {
		return Value{}, fmt.Errorf("bitvec: bit string longer than %d", MaxWidth)
	}
	r := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			pos := len(s) - 1 - i
			if r.words == nil {
				r.small |= 1 << uint(pos)
			} else {
				r.words[pos/64] |= 1 << (uint(pos) % 64)
			}
		default:
			return Value{}, fmt.Errorf("bitvec: invalid bit character %q", c)
		}
	}
	return r, nil
}

// Package bitvec implements fixed-width, bit-true two's-complement values.
//
// Every architectural quantity in this repository — storage contents,
// instruction words, RTL temporaries, non-terminal return values — is a
// bitvec.Value. The XSIM simulators of the paper are "bit-true by
// construction"; this package is the construction. Values carry an explicit
// width in bits and all arithmetic wraps modulo 2^width, exactly as the
// corresponding hardware datapath would.
//
// Values up to 128 bits wide are stored inline in two words, so no
// operation on them allocates; that covers every machine word and SPAM's
// 96-bit instruction word, and keeps the simulators' per-cycle paths off the
// heap. Wider values keep their words in a heap slice.
package bitvec

import (
	"fmt"
	"math/bits"
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
	width int32
	// lo and hi hold bits 0–63 and 64–127 of a value up to 128 bits wide
	// (hi is zero up to 64 bits), and wide is empty. A wider value keeps
	// all of its words in wide, and lo and hi are zero. Bits at positions
	// >= width are always zero (canonical form), so equal values have
	// equal fields.
	lo, hi uint64
	wide   wideWords
}

// wideWords points at the little-endian words of a value wider than 128
// bits; p is nil for narrower values. No operation writes to *p after
// building it: copies of a value share it. The zero-length func array
// takes no space and makes Value non-comparable, so == does not compile
// (it would compare p, not the bits; use Eq). It sits here rather than in
// Value because the compiler keeps a struct of at most four fields, and at
// most 32 bytes, in registers.
type wideWords struct {
	_ [0]func()
	p *[]uint64
}

func wordsFor(width int) int { return (width + 63) / 64 }

// mask64 returns the canonical mask for an inline word holding the given
// number of bits (1..64).
func mask64(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

func checkWidth(width int) {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("bitvec: invalid width %d", width))
	}
}

// New returns a zero value of the given width. It panics if width is not in
// [1, MaxWidth]; widths are static properties of an ISDL description and a
// bad one is a programming error, not a runtime condition.
func New(width int) Value {
	checkWidth(width)
	if width <= 128 {
		return Value{width: int32(width)}
	}
	return wideOf(width, make([]uint64, wordsFor(width)))
}

// small64 builds a value of width 0..64, masking v to width.
func small64(width int, v uint64) Value {
	return Value{width: int32(width), lo: v & mask64(width)}
}

// small128 builds a value of width 65..128, masking hi to width.
func small128(width int, lo, hi uint64) Value {
	return Value{width: int32(width), lo: lo, hi: hi & mask64(width-64)}
}

// inline builds a value of width 0..128 from its low two words.
func inline(width int, lo, hi uint64) Value {
	if width <= 64 {
		return small64(width, lo)
	}
	return small128(width, lo, hi)
}

// wideOf makes ws, a new slice of wordsFor(width) words that nothing else
// holds, the value of a width above 128 bits, zeroing its bits at and above
// width.
func wideOf(width int, ws []uint64) Value {
	if rem := width % 64; rem != 0 {
		ws[len(ws)-1] &= (1 << uint(rem)) - 1
	}
	return Value{width: int32(width), wide: wideWords{p: &ws}}
}

// FromUint64 returns a value of the given width holding v truncated to width
// bits.
func FromUint64(width int, v uint64) Value {
	checkWidth(width)
	if width <= 64 {
		return small64(width, v)
	}
	return FromWords(width, []uint64{v})
}

// FromInt64 returns a value of the given width holding v sign-extended (or
// truncated) to width bits.
func FromInt64(width int, v int64) Value {
	checkWidth(width)
	if width <= 64 {
		return small64(width, uint64(v))
	}
	ext := uint64(v >> 63) // all ones when v is negative
	if width <= 128 {
		return small128(width, uint64(v), ext)
	}
	ws := make([]uint64, wordsFor(width))
	ws[0] = uint64(v)
	for i := 1; i < len(ws); i++ {
		ws[i] = ext
	}
	return wideOf(width, ws)
}

// FromWords returns a value of the given width using the supplied
// little-endian words. Extra high bits are truncated.
func FromWords(width int, words []uint64) Value {
	checkWidth(width)
	if width <= 128 {
		var lo, hi uint64
		if len(words) > 0 {
			lo = words[0]
		}
		if len(words) > 1 {
			hi = words[1]
		}
		return inline(width, lo, hi)
	}
	ws := make([]uint64, wordsFor(width))
	copy(ws, words)
	return wideOf(width, ws)
}

// word returns the i-th 64-bit word; words beyond the value read as zero.
func (v Value) word(i int) uint64 {
	if v.wide.p != nil {
		if i < len(*v.wide.p) {
			return (*v.wide.p)[i]
		}
		return 0
	}
	switch i {
	case 0:
		return v.lo
	case 1:
		return v.hi
	}
	return 0
}

// Width reports the width of v in bits.
func (v Value) Width() int { return int(v.width) }

// IsZero reports whether every bit of v is zero.
func (v Value) IsZero() bool {
	if v.wide.p == nil {
		return v.lo|v.hi == 0
	}
	for _, w := range *v.wide.p {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns bit i (0 = least significant). Out-of-range bits read as 0.
func (v Value) Bit(i int) uint {
	if i < 0 || i >= int(v.width) {
		return 0
	}
	return uint(v.word(i/64)>>(uint(i)%64)) & 1
}

// WithBit returns a copy of v with bit i set to b (b is 0 or 1).
func (v Value) WithBit(i int, b uint) Value {
	if i < 0 || i >= int(v.width) {
		return v
	}
	m, bit := uint64(1)<<(uint(i)%64), uint64(b&1)<<(uint(i)%64)
	if v.wide.p == nil {
		if i < 64 {
			v.lo = v.lo&^m | bit
		} else {
			v.hi = v.hi&^m | bit
		}
		return v
	}
	ws := make([]uint64, len(*v.wide.p))
	copy(ws, *v.wide.p)
	ws[i/64] = ws[i/64]&^m | bit
	return wideOf(int(v.width), ws)
}

// Uint64 returns the low 64 bits of v.
func (v Value) Uint64() uint64 {
	if v.wide.p != nil {
		return (*v.wide.p)[0]
	}
	return v.lo
}

// Int64 returns the value of v interpreted as a signed two's-complement
// number, truncated to 64 bits of magnitude.
func (v Value) Int64() int64 {
	u := v.Uint64()
	if v.width < 64 {
		if v.Bit(int(v.width)-1) == 1 {
			u |= ^uint64(0) << uint(v.width)
		}
	}
	return int64(u)
}

// Sign reports whether the most significant (sign) bit of v is set.
func (v Value) Sign() bool { return v.Bit(int(v.width)-1) == 1 }

// Eq reports whether v and o have identical width and bits.
func (v Value) Eq(o Value) bool {
	if v.width != o.width {
		return false
	}
	if v.wide.p == nil {
		return v.lo == o.lo && v.hi == o.hi
	}
	ow := *o.wide.p
	for i, w := range *v.wide.p {
		if w != ow[i] {
			return false
		}
	}
	return true
}

// EqValue reports whether v and o represent the same unsigned number,
// ignoring width differences.
func (v Value) EqValue(o Value) bool {
	if v.wide.p == nil && o.wide.p == nil {
		return v.lo == o.lo && v.hi == o.hi
	}
	n := wordsFor(int(v.width))
	if m := wordsFor(int(o.width)); m > n {
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
	if a.width <= 64 {
		return small64(int(a.width), a.lo+b.lo)
	}
	r, _ := a.AddCarry(b)
	return r
}

// AddCarry returns a+b mod 2^width and the carry out of the top bit.
func (a Value) AddCarry(b Value) (Value, bool) {
	sameWidth(a, b, "add")
	w := int(a.width)
	if w <= 64 {
		s := a.lo + b.lo
		var carry bool
		if w == 64 {
			carry = s < a.lo
		} else {
			carry = s>>uint(w)&1 == 1
		}
		return small64(w, s), carry
	}
	if w <= 128 {
		lo, c := bits.Add64(a.lo, b.lo, 0)
		hi, c := bits.Add64(a.hi, b.hi, c)
		if w < 128 {
			c = hi >> uint(w-64) & 1
		}
		return small128(w, lo, hi), c == 1
	}
	aw, bw := *a.wide.p, *b.wide.p
	ws := make([]uint64, len(aw))
	var carry uint64
	for i := range ws {
		ws[i], carry = bits.Add64(aw[i], bw[i], carry)
	}
	if rem := w % 64; rem != 0 {
		carry = ws[len(ws)-1] >> uint(rem) & 1
	}
	return wideOf(w, ws), carry == 1
}

// Sub returns a-b mod 2^width.
func (a Value) Sub(b Value) Value {
	sameWidth(a, b, "sub")
	if a.width <= 64 {
		return small64(int(a.width), a.lo-b.lo)
	}
	r, _ := a.SubBorrow(b)
	return r
}

// SubBorrow returns a-b mod 2^width and whether the subtraction borrowed
// (i.e. a < b unsigned).
func (a Value) SubBorrow(b Value) (Value, bool) {
	sameWidth(a, b, "sub")
	w := int(a.width)
	if w <= 64 {
		return small64(w, a.lo-b.lo), a.lo < b.lo
	}
	// Both operands are canonical, so the borrow out of the top word is
	// a < b.
	if w <= 128 {
		lo, c := bits.Sub64(a.lo, b.lo, 0)
		hi, c := bits.Sub64(a.hi, b.hi, c)
		return small128(w, lo, hi), c == 1
	}
	aw, bw := *a.wide.p, *b.wide.p
	ws := make([]uint64, len(aw))
	var borrow uint64
	for i := range ws {
		ws[i], borrow = bits.Sub64(aw[i], bw[i], borrow)
	}
	return wideOf(w, ws), borrow == 1
}

// Neg returns the two's-complement negation of a.
func (a Value) Neg() Value {
	if a.width <= 64 {
		return small64(int(a.width), -a.lo)
	}
	return New(int(a.width)).Sub(a)
}

// Mul returns a*b mod 2^width.
func (a Value) Mul(b Value) Value {
	sameWidth(a, b, "mul")
	w := int(a.width)
	if w <= 64 {
		return small64(w, a.lo*b.lo)
	}
	if w <= 128 {
		hi, lo := bits.Mul64(a.lo, b.lo)
		return small128(w, lo, hi+a.hi*b.lo+a.lo*b.hi)
	}
	aw, bw := *a.wide.p, *b.wide.p
	ws := make([]uint64, len(aw))
	for i, x := range aw {
		if x == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(ws); j++ {
			hi, lo := bits.Mul64(x, bw[j])
			var c1, c2 uint64
			ws[i+j], c1 = bits.Add64(ws[i+j], lo, 0)
			ws[i+j], c2 = bits.Add64(ws[i+j], carry, 0)
			carry = hi + c1 + c2
		}
	}
	return wideOf(w, ws)
}

// DivU returns a/b (unsigned). Division by zero yields an all-ones value, the
// conventional hardware result.
func (a Value) DivU(b Value) Value {
	sameWidth(a, b, "div")
	if a.width <= 64 {
		if b.lo == 0 {
			return small64(int(a.width), ^uint64(0))
		}
		return small64(int(a.width), a.lo/b.lo)
	}
	q, _ := a.divmod(b)
	return q
}

// ModU returns a%b (unsigned). Modulo by zero yields a, the conventional
// hardware result.
func (a Value) ModU(b Value) Value {
	sameWidth(a, b, "mod")
	if a.width <= 64 {
		if b.lo == 0 {
			return a
		}
		return small64(int(a.width), a.lo%b.lo)
	}
	_, r := a.divmod(b)
	return r
}

// divmod is restoring long division, one quotient bit per step.
func (a Value) divmod(b Value) (q, r Value) {
	w := int(a.width)
	if b.IsZero() {
		return New(w).Not(), a
	}
	q, r = New(w), New(w)
	for i := w - 1; i >= 0; i-- {
		r = r.Shl(1).WithBit(0, a.Bit(i))
		if r.CmpU(b) >= 0 {
			r = r.Sub(b)
			q = q.WithBit(i, 1)
		}
	}
	return q, r
}

// bitwise applies f word by word to two values wider than 128 bits.
func bitwise(a, b Value, f func(x, y uint64) uint64) Value {
	aw, bw := *a.wide.p, *b.wide.p
	ws := make([]uint64, len(aw))
	for i := range ws {
		ws[i] = f(aw[i], bw[i])
	}
	return wideOf(int(a.width), ws)
}

// And returns the bitwise AND of a and b.
func (a Value) And(b Value) Value {
	sameWidth(a, b, "and")
	if a.wide.p == nil {
		return Value{width: a.width, lo: a.lo & b.lo, hi: a.hi & b.hi}
	}
	return bitwise(a, b, func(x, y uint64) uint64 { return x & y })
}

// Or returns the bitwise OR of a and b.
func (a Value) Or(b Value) Value {
	sameWidth(a, b, "or")
	if a.wide.p == nil {
		return Value{width: a.width, lo: a.lo | b.lo, hi: a.hi | b.hi}
	}
	return bitwise(a, b, func(x, y uint64) uint64 { return x | y })
}

// Xor returns the bitwise XOR of a and b.
func (a Value) Xor(b Value) Value {
	sameWidth(a, b, "xor")
	if a.wide.p == nil {
		return Value{width: a.width, lo: a.lo ^ b.lo, hi: a.hi ^ b.hi}
	}
	return bitwise(a, b, func(x, y uint64) uint64 { return x ^ y })
}

// Not returns the bitwise complement of a.
func (a Value) Not() Value {
	w := int(a.width)
	if w <= 64 {
		return small64(w, ^a.lo)
	}
	if w <= 128 {
		return small128(w, ^a.lo, ^a.hi)
	}
	ws := make([]uint64, len(*a.wide.p))
	for i, x := range *a.wide.p {
		ws[i] = ^x
	}
	return wideOf(w, ws)
}

// Amount returns v's full unsigned value as a shift amount for Shl, ShrL
// and ShrA. Every amount at or beyond a value's width shifts all of its
// bits out, so an amount above MaxWidth reads as MaxWidth.
func (v Value) Amount() int {
	if v.Uint64() > MaxWidth || v.hi != 0 {
		return MaxWidth
	}
	if v.wide.p != nil {
		for _, w := range (*v.wide.p)[1:] {
			if w != 0 {
				return MaxWidth
			}
		}
	}
	return int(v.Uint64())
}

// shl128 shifts the 128-bit number hi:lo left by n < 128 bits.
func shl128(lo, hi uint64, n uint) (uint64, uint64) {
	if n >= 64 {
		return 0, lo << (n - 64)
	}
	return lo << n, hi<<n | lo>>(64-n)
}

// shr128 shifts the 128-bit number hi:lo right by n < 128 bits.
func shr128(lo, hi uint64, n uint) (uint64, uint64) {
	if n >= 64 {
		return hi >> (n - 64), 0
	}
	return lo>>n | hi<<(64-n), hi >> n
}

// Shl returns a shifted left by n >= 0 bits; vacated bits are zero.
func (a Value) Shl(n int) Value {
	w := int(a.width)
	if n >= w {
		return New(w)
	}
	if w <= 64 {
		return small64(w, a.lo<<uint(n))
	}
	if w <= 128 {
		lo, hi := shl128(a.lo, a.hi, uint(n))
		return small128(w, lo, hi)
	}
	aw := *a.wide.p
	ws := make([]uint64, len(aw))
	wordShift, bitShift := n/64, uint(n%64)
	for i := len(ws) - 1; i >= wordShift; i-- {
		x := aw[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			x |= aw[i-wordShift-1] >> (64 - bitShift)
		}
		ws[i] = x
	}
	return wideOf(w, ws)
}

// ShrL returns a logically shifted right by n >= 0 bits; vacated bits are
// zero.
func (a Value) ShrL(n int) Value {
	w := int(a.width)
	if n >= w {
		return New(w)
	}
	if w <= 64 {
		return Value{width: a.width, lo: a.lo >> uint(n)}
	}
	if w <= 128 {
		lo, hi := shr128(a.lo, a.hi, uint(n))
		return Value{width: a.width, lo: lo, hi: hi}
	}
	aw := *a.wide.p
	ws := make([]uint64, len(aw))
	wordShift, bitShift := n/64, uint(n%64)
	for i := 0; i+wordShift < len(aw); i++ {
		x := aw[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(aw) {
			x |= aw[i+wordShift+1] << (64 - bitShift)
		}
		ws[i] = x
	}
	return wideOf(w, ws)
}

// ShrA returns a arithmetically shifted right by n >= 0 bits; vacated bits
// copy the sign bit.
func (a Value) ShrA(n int) Value {
	if !a.Sign() {
		return a.ShrL(n)
	}
	w := int(a.width)
	if n >= w {
		return New(w).Not()
	}
	if w <= 64 {
		ones := ^(mask64(w) >> uint(n))
		return small64(w, a.lo>>uint(n)|ones)
	}
	return a.ShrL(n).Or(New(w).Not().Shl(w - n))
}

func cmp64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CmpU compares a and b as unsigned numbers: -1 if a<b, 0 if equal, 1 if a>b.
func (a Value) CmpU(b Value) int {
	sameWidth(a, b, "cmp")
	if a.width <= 64 {
		return cmp64(a.lo, b.lo)
	}
	if a.wide.p == nil {
		if a.hi != b.hi {
			return cmp64(a.hi, b.hi)
		}
		return cmp64(a.lo, b.lo)
	}
	aw, bw := *a.wide.p, *b.wide.p
	for i := len(aw) - 1; i >= 0; i-- {
		if aw[i] != bw[i] {
			return cmp64(aw[i], bw[i])
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
	if lo < 0 || hi < lo || hi >= int(v.width) {
		panic(fmt.Sprintf("bitvec: slice [%d:%d] of %d-bit value", hi, lo, v.width))
	}
	w := hi - lo + 1
	if v.width <= 64 {
		return small64(w, v.lo>>uint(lo))
	}
	if v.wide.p == nil {
		l, h := shr128(v.lo, v.hi, uint(lo))
		return inline(w, l, h)
	}
	if w <= 128 {
		i, s := lo/64, uint(lo)%64
		return inline(w, v.word(i)>>s|v.word(i+1)<<(64-s), v.word(i+1)>>s|v.word(i+2)<<(64-s))
	}
	return v.ShrL(lo).Trunc(w)
}

// Concat returns the concatenation hi:lo with hi in the most significant
// position; the result width is the sum of the operand widths.
func (hi Value) Concat(lo Value) Value {
	w := int(hi.width) + int(lo.width)
	if w <= 64 {
		return Value{width: int32(w), lo: hi.lo<<uint(lo.width) | lo.lo}
	}
	if w <= 128 {
		l, h := shl128(hi.lo, hi.hi, uint(lo.width))
		return Value{width: int32(w), lo: l | lo.lo, hi: h | lo.hi}
	}
	ws := make([]uint64, wordsFor(w))
	for i := range ws {
		ws[i] = lo.word(i)
	}
	off, s := int(lo.width)/64, uint(lo.width)%64
	for i := 0; i < wordsFor(int(hi.width)); i++ {
		x := hi.word(i)
		ws[off+i] |= x << s
		if off+i+1 < len(ws) {
			ws[off+i+1] |= x >> (64 - s)
		}
	}
	return wideOf(w, ws)
}

// Trunc returns the low w bits of v. If w >= v.Width() the value is returned
// zero-extended (Trunc doubles as a width adjuster in either direction).
func (v Value) Trunc(w int) Value {
	if w == int(v.width) {
		return v
	}
	if w <= 64 {
		return small64(w, v.Uint64())
	}
	if w <= 128 {
		return small128(w, v.word(0), v.word(1))
	}
	ws := make([]uint64, wordsFor(w))
	for i := range ws {
		ws[i] = v.word(i)
	}
	return wideOf(w, ws)
}

// ZeroExt returns v zero-extended to width w (w >= v.Width(); otherwise it
// truncates).
func (v Value) ZeroExt(w int) Value { return v.Trunc(w) }

// SignExt returns v sign-extended to width w (w >= v.Width(); otherwise it
// truncates).
func (v Value) SignExt(w int) Value {
	if w <= int(v.width) {
		return v.Trunc(w)
	}
	if !v.Sign() {
		return v.ZeroExt(w)
	}
	if w <= 64 {
		return small64(w, v.lo|^mask64(int(v.width)))
	}
	return v.ZeroExt(w).Or(New(w).Not().Shl(int(v.width)))
}

// String renders v as a width-annotated hexadecimal literal, e.g. 8'h3f.
func (v Value) String() string {
	if v.width == 0 {
		return "0'h0"
	}
	digits := (int(v.width) + 3) / 4
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
	n := int(v.width)
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[n-1-i] = '0' + byte(v.Bit(i))
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
	var two [2]uint64
	ws := two[:]
	if len(s) > 128 {
		ws = make([]uint64, wordsFor(len(s)))
	}
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			pos := len(s) - 1 - i
			ws[pos/64] |= 1 << (uint(pos) % 64)
		default:
			return Value{}, fmt.Errorf("bitvec: invalid bit character %q", c)
		}
	}
	return FromWords(len(s), ws), nil
}

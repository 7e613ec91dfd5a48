package isdl

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/bitvec"
)

// lexKind classifies lexical tokens of the ISDL concrete syntax.
type lexKind int

const (
	lexEOF lexKind = iota
	lexIdent
	lexNumber // decimal, 0b…, 0x…, or sized n'b/n'h/n'd
	lexString
	lexPunct // single- or multi-character operator / punctuation
)

// lexToken is one lexical token.
type lexToken struct {
	Kind lexKind
	Text string
	Pos  Pos

	// Number payload. NumVal holds the low 64 bits of a wider literal;
	// fromSized reads the rest from Text.
	NumVal   uint64
	NumWidth int // 0 for unsized decimals
}

// lexError reports a lexical or syntax error with its position.
type lexError struct {
	Pos Pos
	Msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// puncts lists multi-character operators longest-first so maximal munch wins.
var puncts = []string{
	"<-", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "..",
	"(", ")", "{", "}", "[", "]", ":", ";", ",", ".", "#",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "@",
}

// punctsByFirst indexes puncts by their first byte, longest first as in
// puncts, so a token tries at most the four spellings that start with '<'.
var punctsByFirst = func() (t [256][]string) {
	for _, p := range puncts {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.off] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.off++
	}
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			start := l.pos()
			l.advance(2)
			for {
				if l.off+1 >= len(l.src) {
					return &lexError{start, "unterminated block comment"}
				}
				if l.src[l.off] == '*' && l.src[l.off+1] == '/' {
					l.advance(2)
					break
				}
				l.advance(1)
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (lexToken, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return lexToken{}, err
	}
	if l.off >= len(l.src) {
		return lexToken{Kind: lexEOF, Pos: l.pos()}, nil
	}
	p := l.pos()
	c := l.src[l.off]

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.advance(1)
		}
		return lexToken{Kind: lexIdent, Text: l.src[start:l.off], Pos: p}, nil

	case c == '"':
		l.advance(1)
		start := l.off
		for l.off < len(l.src) && l.src[l.off] != '"' && l.src[l.off] != '\n' {
			l.advance(1)
		}
		if l.off >= len(l.src) || l.src[l.off] != '"' {
			return lexToken{}, &lexError{p, "unterminated string"}
		}
		s := l.src[start:l.off]
		l.advance(1)
		return lexToken{Kind: lexString, Text: s, Pos: p}, nil

	case isDigit(c):
		return l.lexNumber(p)
	}

	for _, op := range punctsByFirst[c] {
		if strings.HasPrefix(l.src[l.off:], op) {
			l.advance(len(op))
			return lexToken{Kind: lexPunct, Text: op, Pos: p}, nil
		}
	}
	return lexToken{}, &lexError{p, fmt.Sprintf("unexpected character %q", c)}
}

// lexNumber handles:
//
//	123        unsized decimal
//	0b1011     sized binary, width = digit count
//	0x2f       sized hexadecimal, width = 4 × digit count
//	8'd255     sized decimal
//	8'hff      sized hexadecimal
//	4'b1010    sized binary
//
// Hexadecimal and binary literals may be of any width up to
// bitvec.MaxWidth; decimal literals are limited to 64 bits. A sized
// literal whose value needs more bits than its width is an error; leading
// zero digits beyond the width are not (8'h0ff is 8'hff).
func (l *lexer) lexNumber(p Pos) (lexToken, error) {
	start := l.off
	for l.off < len(l.src) && isDigit(l.src[l.off]) {
		l.advance(1)
	}
	dec := l.src[start:l.off]

	if l.off < len(l.src) && l.src[l.off] == '\'' {
		// Verilog-style sized literal.
		width, err := parseDecimal(dec)
		if err != nil || width == 0 || width > bitvec.MaxWidth {
			return lexToken{}, &lexError{p, "invalid literal width"}
		}
		l.advance(1)
		if l.off >= len(l.src) {
			return lexToken{}, &lexError{p, "truncated sized literal"}
		}
		base := l.src[l.off]
		l.advance(1)
		ds := l.off
		for l.off < len(l.src) && (isIdentCont(l.src[l.off])) {
			l.advance(1)
		}
		digits := l.src[ds:l.off]
		var v uint64
		var words []uint64
		switch base {
		case 'd':
			if width > 64 {
				return lexToken{}, &lexError{p, "sized decimal literals wider than 64 bits are not supported; use hex"}
			}
			v, err = parseDecimal(digits)
		case 'h':
			v, words, err = parseDigits(digits, 4)
		case 'b':
			v, words, err = parseDigits(digits, 1)
		default:
			return lexToken{}, &lexError{p, fmt.Sprintf("unknown literal base %q", base)}
		}
		if err != nil {
			return lexToken{}, &lexError{p, err.Error()}
		}
		if bitLen(v, words) > int(width) {
			return lexToken{}, &lexError{p, fmt.Sprintf("literal %s does not fit in %d bits", l.src[start:l.off], width)}
		}
		return lexToken{Kind: lexNumber, Text: l.src[start:l.off], Pos: p, NumVal: v, NumWidth: int(width)}, nil
	}

	if dec == "0" && l.off < len(l.src) && (l.src[l.off] == 'b' || l.src[l.off] == 'x') {
		bits := 1
		if l.src[l.off] == 'x' {
			bits = 4
		}
		l.advance(1)
		ds := l.off
		for l.off < len(l.src) && isIdentCont(l.src[l.off]) {
			l.advance(1)
		}
		digits := l.src[ds:l.off]
		if len(digits) == 0 {
			return lexToken{}, &lexError{p, "truncated numeric literal"}
		}
		if bits*len(digits) > bitvec.MaxWidth {
			return lexToken{}, &lexError{p, fmt.Sprintf("literals wider than %d bits are not supported", bitvec.MaxWidth)}
		}
		v, _, err := parseDigits(digits, bits)
		if err != nil {
			return lexToken{}, &lexError{p, err.Error()}
		}
		return lexToken{Kind: lexNumber, Text: l.src[start:l.off], Pos: p, NumVal: v, NumWidth: bits * len(digits)}, nil
	}

	v, err := parseDecimal(dec)
	if err != nil {
		return lexToken{}, &lexError{p, err.Error()}
	}
	return lexToken{Kind: lexNumber, Text: dec, Pos: p, NumVal: v, NumWidth: 0}, nil
}

func parseDecimal(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid decimal digit %q", c)
		}
		nv := v*10 + uint64(c-'0')
		if nv < v {
			return 0, fmt.Errorf("decimal literal overflows 64 bits")
		}
		v = nv
	}
	return v, nil
}

// bitLen returns the number of bits a literal's value needs, its highest
// set bit plus one. words, when not nil, holds the whole value.
func bitLen(v uint64, words []uint64) int {
	for i := len(words) - 1; i >= 0; i-- {
		if words[i] != 0 {
			return 64*i + bits.Len64(words[i])
		}
	}
	return bits.Len64(v)
}

// parseDigits reads hexadecimal (4 bits a digit) or binary (1 bit a digit)
// digits. Digits longer than 64 bits also come back as little-endian
// words, v being the lowest.
func parseDigits(s string, bits int) (v uint64, words []uint64, err error) {
	if s == "" {
		return 0, nil, fmt.Errorf("empty number")
	}
	if bits*len(s) > 64 {
		words = make([]uint64, (bits*len(s)+63)/64)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		d := 16
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		}
		if d >= 1<<bits {
			name := "hex"
			if bits == 1 {
				name = "binary"
			}
			return 0, nil, fmt.Errorf("invalid %s digit %q", name, c)
		}
		if words == nil {
			v = v<<bits | uint64(d)
		} else {
			at := bits * (len(s) - 1 - i)
			words[at/64] |= uint64(d) << (at % 64)
		}
	}
	if words != nil {
		v = words[0]
	}
	return v, words, nil
}

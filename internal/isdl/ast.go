// Package isdl implements the Instruction Set Description Language of the
// paper: a behavioral machine description from which every design-evaluation
// tool in this repository is generated — the assembler and disassembler
// (internal/asm), the cycle-accurate bit-true simulator (internal/xsim), and
// the hardware synthesis model (internal/hgen).
//
// A description has the paper's six sections: format, global definitions
// (tokens and non-terminals of an attributed grammar), storage, instruction
// set (VLIW fields of operations), constraints, and optional architectural
// information. The concrete syntax is documented in docs/ISDL.md; the
// structure and semantics follow §2 of the paper.
package isdl

import (
	"fmt"

	"repro/internal/bitvec"
)

// Pos is a source position within an ISDL description.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Description is a parsed and validated ISDL machine description.
type Description struct {
	// Name is the machine name from the optional "Machine <name>;" header.
	Name string
	// WordWidth is the instruction word width in bits (the Format section).
	WordWidth int

	// Global definitions.
	Tokens       map[string]*Token
	NonTerminals map[string]*NonTerminal

	// Storage, in declaration order, plus a name index and aliases.
	Storage       []*Storage
	StorageByName map[string]*Storage
	Aliases       []*Alias

	// Instruction set: the ordered list of VLIW fields.
	Fields []*Field

	// Constraints that every instruction must satisfy.
	Constraints []*Constraint

	// Info holds the optional architectural-information section verbatim.
	Info map[string]string
}

// MaxSize returns the largest Size cost over all operations: the number of
// instruction words an instruction may occupy.
func (d *Description) MaxSize() int {
	max := 1
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			if op.Costs.Size > max {
				max = op.Costs.Size
			}
		}
	}
	return max
}

// FieldByName returns the named field, or nil.
func (d *Description) FieldByName(name string) *Field {
	for _, f := range d.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// TokenKind distinguishes the three token forms of the global-definitions
// section.
type TokenKind int

const (
	// TokRegSet groups syntactically related register names, e.g. R0..R15;
	// the return value is the register index.
	TokRegSet TokenKind = iota
	// TokEnum is an explicit list of name=value alternatives.
	TokEnum
	// TokImm is a numeric literal written directly in assembly.
	TokImm
)

// Token is a syntactic element of the target assembly language with an
// associated return value (§2.1.1).
type Token struct {
	Name string
	Kind TokenKind
	Pos  Pos

	// RegSet form: names are Prefix followed by an index in [Lo, Hi].
	Prefix string
	Lo, Hi int

	// Enum form.
	EnumNames  []string
	EnumValues []uint64

	// Imm form.
	Signed bool

	// RetWidth is the width in bits of the token's return value.
	RetWidth int
}

// ValueFor returns the return value for assembly text s, reporting whether s
// is a valid instance of the token. Imm tokens are handled by the assembler
// (they need numeric parsing and range checks); ValueFor covers RegSet and
// Enum tokens.
func (t *Token) ValueFor(s string) (bitvec.Value, bool) {
	switch t.Kind {
	case TokRegSet:
		if len(s) <= len(t.Prefix) || s[:len(t.Prefix)] != t.Prefix {
			return bitvec.Value{}, false
		}
		n := 0
		for _, c := range s[len(t.Prefix):] {
			if c < '0' || c > '9' {
				return bitvec.Value{}, false
			}
			n = n*10 + int(c-'0')
			if n > t.Hi {
				return bitvec.Value{}, false
			}
		}
		// Reject leading zeros ("R01") so names are canonical.
		if canon := fmt.Sprintf("%s%d", t.Prefix, n); canon != s {
			return bitvec.Value{}, false
		}
		if n < t.Lo || n > t.Hi {
			return bitvec.Value{}, false
		}
		return bitvec.FromUint64(t.RetWidth, uint64(n)), true
	case TokEnum:
		for i, name := range t.EnumNames {
			if name == s {
				return bitvec.FromUint64(t.RetWidth, t.EnumValues[i]), true
			}
		}
		return bitvec.Value{}, false
	default:
		return bitvec.Value{}, false
	}
}

// NameFor returns the assembly text for return value v, reporting whether v
// names a valid instance. For Imm tokens it renders the number (signed or
// unsigned per the declaration).
func (t *Token) NameFor(v bitvec.Value) (string, bool) {
	switch t.Kind {
	case TokRegSet:
		n := int(v.Uint64())
		if n < t.Lo || n > t.Hi {
			return "", false
		}
		return fmt.Sprintf("%s%d", t.Prefix, n), true
	case TokEnum:
		for i, ev := range t.EnumValues {
			if ev == v.Uint64() {
				return t.EnumNames[i], true
			}
		}
		return "", false
	case TokImm:
		if t.Signed {
			return fmt.Sprintf("%d", v.Int64()), true
		}
		return fmt.Sprintf("%d", v.Uint64()), true
	default:
		return "", false
	}
}

// NonTerminal abstracts a common pattern in operation definitions (§2.1.1),
// e.g. an addressing mode. Its return value is a RetWidth-bit bitfield set
// by the chosen option's encode assignments.
type NonTerminal struct {
	Name     string
	Pos      Pos
	RetWidth int
	// ValueWidth is the width of every option's Value expression; the
	// semantic pass verifies the options agree.
	ValueWidth int
	Options    []*Option
	// Lvalue reports whether every option's Value is a storage location,
	// so the non-terminal may appear on the left of "<-".
	Lvalue bool
}

// SynElem is one element of an option's or operation's assembly syntax:
// either a literal string or a reference to a parameter by index.
type SynElem struct {
	Lit   string // non-empty for a literal element
	Param int    // parameter index when Lit is empty
}

// Option is one alternative of a non-terminal. It carries the same six parts
// as an operation definition (per the paper), plus the return-value encode
// assignments and the value expression the parent operation's RTL sees.
type Option struct {
	Index  int
	Pos    Pos
	Syntax []SynElem
	Params []*Param
	// Encode sets bits of the non-terminal's return value (destination R).
	Encode []*BitAssign
	// Value is the expression substituted where the parent references this
	// parameter; it may be a storage location (usable as an lvalue).
	Value Expr
	// SideEffect statements run in the side-effects phase of the cycle.
	SideEffect []Stmt
	Costs      Costs
	Timing     Timing

	// Sig is the option's signature over the non-terminal's return value,
	// built by the semantic pass (Figure 3).
	Sig Signature
}

// Param is a named parameter of an operation or option; its type names a
// token or a non-terminal.
type Param struct {
	Name     string
	TypeName string
	Pos      Pos
	// Resolved by the semantic pass: exactly one of Token/NT is non-nil.
	Token *Token
	NT    *NonTerminal
}

// RetWidth returns the width of the parameter's encoding bits.
func (p *Param) RetWidth() int {
	if p.Token != nil {
		return p.Token.RetWidth
	}
	return p.NT.RetWidth
}

// ValueWidth returns the width of the parameter's value as seen by RTL.
func (p *Param) ValueWidth() int {
	if p.Token != nil {
		return p.Token.RetWidth
	}
	return p.NT.ValueWidth
}

// BitAssign is one bitfield assignment (§2.1.3 part 2): destination bits
// [Hi:Lo] of the instruction word (operations) or return value (options) are
// set to a constant or to (a slice of) a single parameter's value — the
// restriction that makes Axiom 1 hold by construction.
type BitAssign struct {
	Pos    Pos
	Hi, Lo int

	// Exactly one source form:
	Const    bitvec.Value // valid if ConstSet
	ConstSet bool
	Param    int // parameter index, when ConstSet is false
	// Optional slice of the parameter value; PHi = -1 means the whole value.
	PHi, PLo int
}

// Width returns the number of destination bits.
func (b *BitAssign) Width() int { return b.Hi - b.Lo + 1 }

// StorageKind enumerates the eight ISDL storage types (§2.1.2).
type StorageKind int

const (
	StInstructionMemory StorageKind = iota
	StDataMemory
	StRegFile
	StRegister
	StControlRegister
	StMemoryMappedIO
	StProgramCounter
	StStack
)

var storageKindNames = map[StorageKind]string{
	StInstructionMemory: "InstructionMemory",
	StDataMemory:        "DataMemory",
	StRegFile:           "RegFile",
	StRegister:          "Register",
	StControlRegister:   "ControlRegister",
	StMemoryMappedIO:    "MemoryMappedIO",
	StProgramCounter:    "ProgramCounter",
	StStack:             "Stack",
}

func (k StorageKind) String() string { return storageKindNames[k] }

// Addressed reports whether the storage kind has a depth (multiple
// locations).
func (k StorageKind) Addressed() bool {
	switch k {
	case StInstructionMemory, StDataMemory, StRegFile, StMemoryMappedIO, StStack:
		return true
	}
	return false
}

// Storage is one visible storage element (§2.1.2).
type Storage struct {
	Name  string
	Kind  StorageKind
	Pos   Pos
	Width int
	Depth int // locations, for addressed kinds; 1 otherwise
	Base  uint64
	// Index is the storage's position in Description.Storage, set by the
	// parser (consumers index per-storage tables by it).
	Index int
}

// Addr returns the element an index value v selects: v's low 64 bits,
// read unsigned, modulo Depth. Hardware address decoders ignore the high
// bits, and every simulator resolves an index through this one rule.
func (s *Storage) Addr(v uint64) int {
	if v < uint64(s.Depth) {
		return int(v)
	}
	return int(v % uint64(s.Depth))
}

// Alias names an arbitrary sub-part of the processor state: an element of an
// addressed storage and/or a bit range.
type Alias struct {
	Name   string
	Pos    Pos
	Target string // storage name, as written
	// Storage is the target, resolved by the semantic pass.
	Storage *Storage
	Indexed bool
	Index   uint64
	Sliced  bool
	Hi, Lo  int
}

// Field is one VLIW field: the set of mutually exclusive operations that map
// to a single functional unit (§2.1.3).
type Field struct {
	Name   string
	Pos    Pos
	Index  int
	Ops    []*Operation
	ByName map[string]*Operation
}

// Costs are the pre-defined ISDL operation costs (§2.1.3 part 5).
type Costs struct {
	Cycle int // cycles in the absence of stalls
	Stall int // additional cycles possible during a pipeline stall
	Size  int // instruction words occupied
}

// Timing holds the pre-defined ISDL timing parameters (§2.1.3 part 6).
type Timing struct {
	Latency int // cycles until the result is available
	Usage   int // cycles until the functional unit is available again
}

// Operation is one operation definition with its six parts (§2.1.3).
type Operation struct {
	Name  string
	Pos   Pos
	Field *Field

	Syntax     []SynElem
	Params     []*Param
	Encode     []*BitAssign
	Action     []Stmt
	SideEffect []Stmt
	Costs      Costs
	Timing     Timing

	// Sig is the operation's signature over the instruction word(s), built
	// by the semantic pass (Figure 3).
	Sig Signature
}

// QualName returns Field.Op, the unambiguous name used by constraints and
// diagnostics.
func (o *Operation) QualName() string { return o.Field.Name + "." + o.Name }

// Constraint is one validity rule (§2.1.4): a boolean expression over
// operation-presence atoms that every instruction must satisfy.
type Constraint struct {
	Pos  Pos
	Expr CExpr
	Text string // original source text for diagnostics
}

// CExpr is a constraint expression node.
type CExpr interface{ cexpr() }

// CAtom is true when the named operation is present in the instruction.
type CAtom struct {
	Field, Op string
	// Resolved by the semantic pass.
	ResolvedField *Field
	ResolvedOp    *Operation
}

// CNot negates a constraint expression.
type CNot struct{ X CExpr }

// CBin combines two constraint expressions with "&", "|" or "->".
type CBin struct {
	Op   string
	X, Y CExpr
}

func (*CAtom) cexpr() {}
func (*CNot) cexpr()  {}
func (*CBin) cexpr()  {}

// Truth is a three-valued (Kleene) truth value: the answer a constraint
// gives over a selection that may leave fields unchosen. The encoding makes
// negation a sign flip, conjunction a minimum and disjunction a maximum.
type Truth int8

const (
	False   Truth = -1
	Unknown Truth = 0
	True    Truth = 1
)

// Eval evaluates the constraint over a selection of one operation per
// field, indexed by Field.Index. A nil entry is a field not chosen yet, and
// an atom over it is Unknown. A definite answer (True or False) holds for
// every way of completing the selection; on a complete selection the
// answer is always definite. Eval allocates nothing.
func (c *Constraint) Eval(sel []*Operation) Truth {
	return cEval(c.Expr, sel)
}

func cEval(e CExpr, sel []*Operation) Truth {
	switch e := e.(type) {
	case *CAtom:
		switch op := sel[e.ResolvedField.Index]; op {
		case nil:
			return Unknown
		case e.ResolvedOp:
			return True
		}
		return False
	case *CNot:
		return -cEval(e.X, sel)
	case *CBin:
		x := cEval(e.X, sel)
		switch e.Op {
		case "&":
			if x == False {
				return False
			}
			return min(x, cEval(e.Y, sel))
		case "|":
			if x == True {
				return True
			}
			return max(x, cEval(e.Y, sel))
		case "->":
			if x == False {
				return True
			}
			return max(-x, cEval(e.Y, sel))
		}
	}
	panic("isdl: bad constraint expression")
}

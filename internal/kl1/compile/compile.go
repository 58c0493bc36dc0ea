package compile

import (
	"fmt"

	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
)

// NumRegs is the size of the abstract machine's register file.
const NumRegs = 128

// MaxGoalArity bounds goal arity so records fit the fixed goal-record
// size (see the emulator's record layout: 16 words, 3 of header).
const MaxGoalArity = 13

// ProcInfo describes one compiled procedure.
type ProcInfo struct {
	Name  string
	Arity int
	// Entry is the procedure's code offset within the image.
	Entry int
}

// Key renders name/arity.
func (p ProcInfo) Key() string { return fmt.Sprintf("%s/%d", p.Name, p.Arity) }

// Image is a compiled program: a flat code vector to be loaded at the
// base of the instruction area, plus the procedure table (which models
// the machine's symbol table and is not itself simulated memory).
type Image struct {
	Code    []word.Word
	Procs   []ProcInfo
	Atoms   *word.Table
	procIdx map[string]int
}

// ProcIndexOf resolves a name/arity to a procedure index.
func (im *Image) ProcIndexOf(name string, arity int) (int, bool) {
	i, ok := im.procIdx[fmt.Sprintf("%s/%d", name, arity)]
	return i, ok
}

// Source parses and compiles FGHC source text with a fresh atom table.
// Its errors are labeled "parse:" or "compile:" by the stage that
// refused the program.
func Source(src string) (*Image, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	im, err := Compile(prog, word.NewTable())
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return im, nil
}

// Compile translates a parsed program. Atom names are interned into
// atoms, which the emulator shares for rendering output.
func Compile(prog *parser.Program, atoms *word.Table) (*Image, error) {
	im := &Image{Atoms: atoms, procIdx: make(map[string]int)}
	for i, proc := range prog.Procedures {
		if proc.Arity > MaxGoalArity {
			return nil, fmt.Errorf("%s: arity exceeds goal record capacity (%d)", proc.Key(), MaxGoalArity)
		}
		im.procIdx[proc.Key()] = i
		im.Procs = append(im.Procs, ProcInfo{Name: proc.Name, Arity: proc.Arity})
	}
	for i, proc := range prog.Procedures {
		im.Procs[i].Entry = len(im.Code)
		for _, cl := range proc.Clause {
			cc := &clauseCtx{im: im, procIdx: i, clause: cl,
				venv: map[string]int{}, bound: map[string]bool{}, nextReg: proc.Arity}
			if err := cc.compile(); err != nil {
				return nil, fmt.Errorf("%s (line %d): %v", proc.Key(), cl.Line, err)
			}
		}
		im.emit(OpSuspend, i, proc.Arity, 0)
	}
	return im, nil
}

func (im *Image) emit(op Op, a, b, c int) int {
	pos := len(im.Code)
	im.Code = append(im.Code, Encode(op, a, b, c))
	return pos
}

func (im *Image) emitImm(op Op, a, b, c int, imm word.Word) int {
	pos := im.emit(op, a, b, c)
	im.Code = append(im.Code, imm)
	return pos
}

// clauseCtx compiles one clause.
type clauseCtx struct {
	im      *Image
	procIdx int
	clause  *parser.Clause
	venv    map[string]int  // variable -> register
	bound   map[string]bool // known bound after the passive part
	nextReg int

	// Deferred body work, flushed at the end of the body in the order
	// builtins-last (so they sit at the goal-list front and run first).
	spawnCalls    []pendingSpawn // user goals g2..gk in source order
	spawnBuiltins []pendingSpawn
	execGoal      *pendingSpawn // leftmost user goal, tail-executed
}

type pendingSpawn struct {
	procIdx int
	arity   int
	base    int
}

func (cc *clauseCtx) allocReg(n int) (int, error) {
	if cc.nextReg+n > NumRegs {
		return 0, fmt.Errorf("clause too complex: more than %d registers needed", NumRegs)
	}
	r := cc.nextReg
	cc.nextReg += n
	return r, nil
}

func (cc *clauseCtx) compile() error {
	im := cc.im
	tryPos := im.emit(OpTry, 0, 0, 0)
	if cc.hasOtherwise() {
		im.emit(OpOtherwise, 0, 0, 0)
	}
	// Passive part: head matching then guards.
	for i, arg := range cc.clause.Head.Args {
		if err := cc.matchArg(i, arg); err != nil {
			return err
		}
	}
	for _, g := range cc.clause.Guards {
		if err := cc.compileGuard(g); err != nil {
			return err
		}
	}
	im.emit(OpCommit, 0, 0, 0)
	// Active part.
	if err := cc.compileBody(); err != nil {
		return err
	}
	// Patch the fail target to the next clause (or the OpSuspend).
	fail := len(im.Code)
	im.Code[tryPos] = Encode(OpTry, fail>>16, fail&0xFFFF, 0)
	return nil
}

func (cc *clauseCtx) hasOtherwise() bool {
	for _, g := range cc.clause.Guards {
		if g.Kind == "otherwise" {
			return true
		}
	}
	return false
}

// matchArg compiles passive matching of head argument i.
func (cc *clauseCtx) matchArg(reg int, t parser.Term) error {
	switch t := t.(type) {
	case parser.Var:
		if prev, ok := cc.venv[t.Name]; ok {
			cc.im.emit(OpMatchEq, prev, reg, 0)
			return nil
		}
		cc.venv[t.Name] = reg
		return nil
	default:
		return cc.matchPattern(reg, t)
	}
}

func (cc *clauseCtx) constWord(t parser.Term) (word.Word, bool) {
	switch t := t.(type) {
	case parser.Int:
		return word.Int(t.Value), true
	case parser.Atom:
		return word.Atom(cc.im.Atoms.Intern(t.Name)), true
	case parser.NilList:
		return word.Nil(), true
	}
	return 0, false
}

func (cc *clauseCtx) matchPattern(reg int, t parser.Term) error {
	im := cc.im
	if cw, ok := cc.constWord(t); ok {
		im.emitImm(OpWaitConst, reg, 0, 0, cw)
		return nil
	}
	switch t := t.(type) {
	case parser.Var:
		return cc.matchArg(reg, t)
	case parser.Cons:
		rc, err := cc.allocReg(2)
		if err != nil {
			return err
		}
		im.emit(OpWaitList, reg, rc, rc+1)
		if err := cc.matchArg(rc, t.Car); err != nil {
			return err
		}
		return cc.matchArg(rc+1, t.Cdr)
	case parser.Struct:
		base, err := cc.allocReg(len(t.Args))
		if err != nil {
			return err
		}
		f := word.Functor(cc.im.Atoms.Intern(t.Functor), len(t.Args))
		im.emitImm(OpWaitStruct, reg, base, 0, f)
		for i, a := range t.Args {
			if err := cc.matchArg(base+i, a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("cannot match term %s", t)
}

var cmpKinds = map[string]int{
	"<": CmpLt, ">": CmpGt, "=<": CmpLe, ">=": CmpGe, "=:=": CmpEq, "=\\=": CmpNe,
}

var typeKinds = map[string]int{
	"integer": TypeInteger, "atom": TypeAtom, "list": TypeList,
}

// guardOperand yields the register holding a guard operand (loading
// integer constants into a temporary).
func (cc *clauseCtx) guardOperand(t parser.Term) (int, error) {
	switch t := t.(type) {
	case parser.Var:
		r, ok := cc.venv[t.Name]
		if !ok {
			return 0, fmt.Errorf("guard variable %s does not occur in the head", t.Name)
		}
		cc.bound[t.Name] = true
		return r, nil
	case parser.Int:
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		cc.im.emitImm(OpPutConst, r, 0, 0, word.Int(t.Value))
		return r, nil
	}
	return 0, fmt.Errorf("guard operand %s must be a variable or integer", t)
}

func (cc *clauseCtx) compileGuard(g parser.Guard) error {
	im := cc.im
	switch {
	case g.Kind == "true" || g.Kind == "otherwise":
		return nil // otherwise handled at clause start
	case cmpKinds[g.Kind] != 0 || g.Kind == "<":
		l, err := cc.guardOperand(g.Args[0])
		if err != nil {
			return err
		}
		r, err := cc.guardOperand(g.Args[1])
		if err != nil {
			return err
		}
		im.emit(OpGuardCmp, cmpKinds[g.Kind], l, r)
		return nil
	case g.Kind == "wait":
		v, ok := g.Args[0].(parser.Var)
		if !ok {
			return fmt.Errorf("wait/1 needs a variable")
		}
		r, ok := cc.venv[v.Name]
		if !ok {
			return fmt.Errorf("wait variable %s does not occur in the head", v.Name)
		}
		im.emit(OpWaitVar, r, 0, 0)
		cc.bound[v.Name] = true
		return nil
	default:
		if k, ok := typeKinds[g.Kind]; ok {
			v, isVar := g.Args[0].(parser.Var)
			if !isVar {
				return fmt.Errorf("%s/1 needs a variable", g.Kind)
			}
			r, found := cc.venv[v.Name]
			if !found {
				return fmt.Errorf("guard variable %s does not occur in the head", v.Name)
			}
			im.emit(OpGuardType, k, r, 0)
			cc.bound[v.Name] = true
			return nil
		}
	}
	return fmt.Errorf("unsupported guard %q", g.Kind)
}

// --- body ---

func (cc *clauseCtx) compileBody() error {
	for _, goal := range cc.clause.Body {
		var err error
		switch goal.Kind {
		case "unify":
			err = cc.compileUnify(goal.Args[0], goal.Args[1])
		case "assign":
			err = cc.compileAssign(goal.Args[0], goal.Expr)
		case "call":
			err = cc.compileCall(goal)
		case "cmp":
			err = fmt.Errorf("comparison %s is only legal in a guard", goal.Name)
		default:
			err = fmt.Errorf("unsupported body goal kind %q", goal.Kind)
		}
		if err != nil {
			return err
		}
	}
	im := cc.im
	// Spawn order: user goals gk..g2, then builtins (reverse), so the
	// goal-list front reads: builtins, g2, ..., gk — depth-first leftmost
	// once the tail-executed g1 chain completes.
	for i := len(cc.spawnCalls) - 1; i >= 0; i-- {
		s := cc.spawnCalls[i]
		im.emit(OpSpawn, s.procIdx, s.arity, s.base)
	}
	for i := len(cc.spawnBuiltins) - 1; i >= 0; i-- {
		s := cc.spawnBuiltins[i]
		im.emit(OpSpawn, s.procIdx, s.arity, s.base)
	}
	if cc.execGoal != nil {
		im.emit(OpExec, cc.execGoal.procIdx, cc.execGoal.arity, cc.execGoal.base)
	} else {
		im.emit(OpProceed, 0, 0, 0)
	}
	return nil
}

// buildTerm materializes t and returns the register holding it.
func (cc *clauseCtx) buildTerm(t parser.Term) (int, error) {
	im := cc.im
	if cw, ok := cc.constWord(t); ok {
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emitImm(OpPutConst, r, 0, 0, cw)
		return r, nil
	}
	switch t := t.(type) {
	case parser.Var:
		if r, ok := cc.venv[t.Name]; ok {
			return r, nil
		}
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emit(OpPutVar, r, 0, 0)
		cc.venv[t.Name] = r
		return r, nil
	case parser.Cons:
		rc, err := cc.buildTerm(t.Car)
		if err != nil {
			return 0, err
		}
		rd, err := cc.buildTerm(t.Cdr)
		if err != nil {
			return 0, err
		}
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emit(OpPutList, r, rc, rd)
		return r, nil
	case parser.Struct:
		regs := make([]int, len(t.Args))
		for i, a := range t.Args {
			r, err := cc.buildTerm(a)
			if err != nil {
				return 0, err
			}
			regs[i] = r
		}
		base, err := cc.allocReg(len(t.Args))
		if err != nil {
			return 0, err
		}
		for i, r := range regs {
			im.emit(OpMove, base+i, r, 0)
		}
		dst, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		f := word.Functor(cc.im.Atoms.Intern(t.Functor), len(t.Args))
		im.emitImm(OpPutStruct, dst, base, 0, f)
		return dst, nil
	}
	return 0, fmt.Errorf("cannot build term %s", t)
}

func (cc *clauseCtx) compileUnify(a, b parser.Term) error {
	ra, err := cc.buildTerm(a)
	if err != nil {
		return err
	}
	rb, err := cc.buildTerm(b)
	if err != nil {
		return err
	}
	cc.im.emit(OpUnify, ra, rb, 0)
	return nil
}

var arithKinds = map[string]int{
	"+": ArithAdd, "-": ArithSub, "*": ArithMul, "/": ArithDiv, "mod": ArithMod,
}

// exprBound reports whether every variable in e is known bound, allowing
// inline arithmetic.
func (cc *clauseCtx) exprBound(e parser.Expr) bool {
	switch e := e.(type) {
	case parser.ExprInt:
		return true
	case parser.ExprVar:
		return cc.bound[e.Name]
	case parser.ExprBin:
		return cc.exprBound(e.L) && cc.exprBound(e.R)
	}
	return false
}

// buildExprInline emits ARITH instructions computing e into a register.
func (cc *clauseCtx) buildExprInline(e parser.Expr) (int, error) {
	im := cc.im
	switch e := e.(type) {
	case parser.ExprInt:
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emitImm(OpPutConst, r, 0, 0, word.Int(e.Value))
		return r, nil
	case parser.ExprVar:
		r, ok := cc.venv[e.Name]
		if !ok {
			return 0, fmt.Errorf("arithmetic variable %s is unbound", e.Name)
		}
		return r, nil
	case parser.ExprBin:
		l, err := cc.buildExprInline(e.L)
		if err != nil {
			return 0, err
		}
		r, err := cc.buildExprInline(e.R)
		if err != nil {
			return 0, err
		}
		d, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emit(OpArith, arithKinds[e.Op], d, l<<8|r)
		return d, nil
	}
	return 0, fmt.Errorf("cannot compile expression %s", e)
}

// buildExprAsGoals decomposes e into spawned arithmetic builtin goals
// connected by fresh channel variables, returning the register holding
// the (possibly yet unbound) result.
func (cc *clauseCtx) buildExprAsGoals(e parser.Expr) (int, error) {
	im := cc.im
	switch e := e.(type) {
	case parser.ExprInt:
		r, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emitImm(OpPutConst, r, 0, 0, word.Int(e.Value))
		return r, nil
	case parser.ExprVar:
		return cc.buildTerm(parser.Var{Name: e.Name})
	case parser.ExprBin:
		l, err := cc.buildExprAsGoals(e.L)
		if err != nil {
			return 0, err
		}
		r, err := cc.buildExprAsGoals(e.R)
		if err != nil {
			return 0, err
		}
		// Fresh result cell; $arith(l, r, cell) binds it when ready.
		dest, err := cc.allocReg(1)
		if err != nil {
			return 0, err
		}
		im.emit(OpPutVar, dest, 0, 0)
		base, err := cc.allocReg(3)
		if err != nil {
			return 0, err
		}
		im.emit(OpMove, base, l, 0)
		im.emit(OpMove, base+1, r, 0)
		im.emit(OpMove, base+2, dest, 0)
		cc.spawnBuiltins = append(cc.spawnBuiltins,
			pendingSpawn{procIdx: BuiltinArith + arithKinds[e.Op], arity: 3, base: base})
		return dest, nil
	}
	return 0, fmt.Errorf("cannot compile expression %s", e)
}

func (cc *clauseCtx) compileAssign(dest parser.Term, e parser.Expr) error {
	var res int
	var err error
	inline := cc.exprBound(e)
	if inline {
		res, err = cc.buildExprInline(e)
	} else {
		res, err = cc.buildExprAsGoals(e)
	}
	if err != nil {
		return err
	}
	if v, ok := dest.(parser.Var); ok {
		if _, exists := cc.venv[v.Name]; !exists {
			cc.venv[v.Name] = res
			if inline {
				cc.bound[v.Name] = true
			}
			return nil
		}
	}
	rd, err := cc.buildTerm(dest)
	if err != nil {
		return err
	}
	cc.im.emit(OpUnify, rd, res, 0)
	return nil
}

func (cc *clauseCtx) compileCall(g parser.BodyGoal) error {
	im := cc.im
	var procIdx, arity int
	switch g.Name {
	case "print", "println":
		if len(g.Args) != 1 {
			return fmt.Errorf("%s/1 expects one argument", g.Name)
		}
		procIdx, arity = BuiltinPrint, 1
		if g.Name == "println" {
			procIdx = BuiltinPrintln
		}
	case "new_vector":
		if len(g.Args) != 2 {
			return fmt.Errorf("new_vector/2 expects two arguments")
		}
		procIdx, arity = BuiltinNewVec, 2
	case "vector_element":
		if len(g.Args) != 3 {
			return fmt.Errorf("vector_element/3 expects three arguments")
		}
		procIdx, arity = BuiltinVecElem, 3
	case "set_vector_element":
		if len(g.Args) != 4 {
			return fmt.Errorf("set_vector_element/4 expects four arguments")
		}
		procIdx, arity = BuiltinSetVec, 4
	default:
		idx, ok := cc.im.ProcIndexOf(g.Name, len(g.Args))
		if !ok {
			return fmt.Errorf("undefined procedure %s/%d", g.Name, len(g.Args))
		}
		procIdx, arity = idx, len(g.Args)
	}
	regs := make([]int, len(g.Args))
	for i, a := range g.Args {
		r, err := cc.buildTerm(a)
		if err != nil {
			return err
		}
		regs[i] = r
	}
	base, err := cc.allocReg(arity)
	if err != nil {
		return err
	}
	for i, r := range regs {
		im.emit(OpMove, base+i, r, 0)
	}
	s := pendingSpawn{procIdx: procIdx, arity: arity, base: base}
	if IsBuiltin(procIdx) {
		cc.spawnBuiltins = append(cc.spawnBuiltins, s)
	} else if cc.execGoal == nil {
		cc.execGoal = &s
	} else {
		cc.spawnCalls = append(cc.spawnCalls, s)
	}
	return nil
}

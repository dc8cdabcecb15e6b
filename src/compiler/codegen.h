/**
 * @file
 * The MX-Lisp code generator.
 *
 * A one-pass, tree-walking compiler in the Portable Standard Lisp
 * tradition: top-level functions only (no closures), locals on the
 * stack under a strict push/pop discipline (see frame.h), expression
 * temporaries in r10..r19, arguments in r2..r9, result in r1.
 *
 * Code generation is parameterized by the tag scheme, the checking
 * mode, and the hardware features (CompilerOptions) — together these
 * select one cell of the paper's measurement space. Every emitted
 * instruction carries an Annotation identifying the tag operation it
 * implements, which is what the machine's cycle accounting aggregates.
 *
 * Temp-register invariant: no expression temporary is live across a
 * call to a user function (the caller pushes intermediates first).
 * Out-of-line runtime helpers that can be entered with live temps (the
 * generic-arithmetic slow path, the trap handlers) save and restore
 * r10..r19, and the GC updates the saved copies like any other stack
 * slots.
 */

#ifndef MXLISP_COMPILER_CODEGEN_H_
#define MXLISP_COMPILER_CODEGEN_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/asm_buffer.h"
#include "compiler/frame.h"
#include "compiler/options.h"
#include "runtime/image.h"
#include "sexpr/sexpr.h"
#include "tags/tag_scheme.h"

namespace mxl {

/** Labels of the runtime stubs codegen emits calls/branches to. */
struct RuntimeLabels
{
    int error = -1;     ///< type/bounds error (never returns)
    int cons = -1;      ///< rt_cons: car r2, cdr r3 -> r1
    int mkvect = -1;    ///< rt_mkvect: length r2 -> r1 (nil-filled)
    int mkstring = -1;  ///< rt_mkstring: length r2 -> r1 (zero-filled)
    int genAdd = -1;    ///< generic-arith slow paths (preserve temps)
    int genSub = -1;
    int genMul = -1;
    int genDiv = -1;
    int genRem = -1;
    int genLess = -1;   ///< generic compare slow paths -> t/nil in r1
    int genEqn = -1;
    int apply = -1;     ///< rt_apply: fn r2, arg list r3 -> r1
};

class CodeGen
{
  public:
    CodeGen(SxArena &arena, ImageBuilder &image, AsmBuffer &buf,
            const CompilerOptions &opts, const TagScheme &scheme);

    void setRuntimeLabels(const RuntimeLabels &labels) { rt_ = labels; }

    /**
     * While true, generic arithmetic compiles with the inline
     * integer-biased sequence regardless of opts.arithMode. Set when
     * compiling the runtime library: the ForceDispatch experiment
     * (§6.2.2) must not make the dispatch routine dispatch to itself.
     */
    void setLibArithInline(bool v) { libArithInline_ = v; }

    /** Pass 1: declare a function so calls can be resolved. */
    void declareFunction(Sx *name, int arity);

    bool isDeclared(Sx *name) const;

    /** Pass 2: compile `(de name (args...) body...)`. */
    void compileFunction(Sx *def);

    /**
     * Compile the program entry: runs @p topForms in order, then halts
     * with the last value. Exported as "main".
     */
    void compileMain(const std::vector<Sx *> &topForms);

    /** Label of a declared function (fatal if unknown/arity mismatch). */
    int functionLabel(Sx *name, int arity);

    int proceduresCompiled() const { return procedures_; }

    const CompilerOptions &options() const { return opts_; }
    const TagScheme &scheme() const { return scheme_; }
    ImageBuilder &image() { return image_; }
    AsmBuffer &buf() { return buf_; }

  private:
    friend class PrimHandlers;

    struct FnInfo
    {
        int label;
        int arity;
    };

    // ---- expression compilation (codegen.cc) ----

    /**
     * Deepest expr() recursion compiled. The reader bounds source
     * nesting, but expansions are deeper than their source — a
     * (list ...) becomes one nested cons per element — so codegen
     * bounds its own recursion and reports a fatal() instead of
     * overflowing the host stack.
     */
    static constexpr int kMaxExprDepth = 1000;

    void expr(Sx *e, Reg target);
    void compileCall(Sx *head, const std::vector<Sx *> &args, Reg target);

    /** Marshal @p args and call the code at @p label (user or stub). */
    void compileCallTo(int label, const std::vector<Sx *> &args,
                       Reg target, Annotation callAnn = {Purpose::Useful});

    /**
     * Evaluate two operands left-to-right into fresh temps. When @p b
     * contains a call, @p a's value is protected on the stack across it
     * (the no-live-temps-at-calls invariant).
     */
    void evalTwo(Sx *a, Sx *b, Reg &ra, Reg &rb);

    /** Like expr(), but integer literals load as raw machine words —
     *  the convention of the sys-Lisp layer the GC is written in. */
    void exprSys(Sx *e, Reg target);

    /** evalTwo with sys-layer literal semantics. */
    void evalTwoSys(Sx *a, Sx *b, Reg &ra, Reg &rb);
    void compileBody(Sx *forms, Reg target); ///< progn-style list
    void condBranchFalse(Sx *cond, int falseLabel); ///< jump if nil
    void condBranchTrue(Sx *cond, int trueLabel);   ///< jump if non-nil

    // Special forms.
    void formIf(Sx *e, Reg target);
    void formCond(Sx *e, Reg target);
    void formLet(Sx *e, Reg target, bool sequential);
    void formSetq(Sx *e, Reg target);
    void formWhile(Sx *e, Reg target);
    void formAndOr(Sx *e, Reg target, bool isAnd);

    // ---- helpers ----
    bool isSimple(Sx *e) const;      ///< no calls, O(1) temps
    bool containsCall(Sx *e) const;  ///< may clobber temp registers

    Reg allocTemp();
    void freeTemp(Reg r);
    void freeTempsAbove(int mark);
    int tempMark() const { return tempTop_; }

    void pushReg(Reg r);             ///< push a tagged value
    void popTo(Reg r);               ///< pop into a register
    void dropWords(int n);           ///< pop n words without reading

    void loadConstant(Sx *quoted, Reg target);
    void loadVar(Sx *sym, Reg target);
    void storeVar(Sx *sym, Reg value);

    /** Emit `target <- nil/t` from a just-computed condition. */
    void materializeBool(int trueLabel, Reg target);

    // ---- type checks & tagged access (codegen_checks.cc) ----

    /** Branch to the error stub unless tag(x) == t. No-op when
     *  checking is off or hardware will check in parallel. */
    void emitTypeCheck(Reg x, TypeId t, CheckCat cat);

    /** Branch to @p label unless @p x is a fixnum (§4.1 method 2). */
    void emitFixnumCheckBranch(Reg x, int label, CheckCat cat,
                               bool fromChecking);

    /** Branch to @p label if @p x IS a fixnum. */
    void emitFixnumBranchIf(Reg x, int label, CheckCat cat,
                            bool fromChecking);

    /**
     * Load the word at byte offset @p off of the object @p base (a
     * tagged pointer of type @p t) into @p target, handling tag
     * removal/offset adjustment/checked-load selection. @p checked
     * requests the type check (when checking is Full).
     */
    void emitLoadField(Reg target, Reg base, TypeId t, int off,
                       CheckCat cat, bool checked);

    /** Store @p value into the object field (see emitLoadField). */
    void emitStoreField(Reg value, Reg base, TypeId t, int off,
                        CheckCat cat, bool checked);

    /** Compute the detagged address of @p base into @p target. */
    void emitDetag(Reg target, Reg base, TypeId t, Annotation ann);

    /**
     * Produce a register usable as a memory base for an object of type
     * @p t: masks the tag for high-tag schemes (a fresh temp), or
     * returns @p base itself with @p adj set to the offset adjustment.
     * When the result would equal @p avoid (the load target), inserts
     * an idempotency copy (the Figure 2 `move` effect). The caller
     * frees any temp via freeTempsAbove().
     */
    Reg prepareBase(Reg base, TypeId t, int &adj, Reg avoid);

    /** Branch to @p label unless tag(x) == t (software or btag). */
    void emitTagBranchNe(Reg x, TypeId t, int label, CheckCat cat,
                         bool fromChecking, bool hintFall);

    /** Branch to @p label if tag(x) == t. */
    void emitTagBranchEq(Reg x, TypeId t, int label, CheckCat cat,
                         bool fromChecking);

    /** Generic arithmetic (+ - * quotient remainder): §2.2/§4.2/§6.2.2. */
    void emitArith(const std::string &op, Sx *a, Sx *b, Reg target);

    /** Numeric comparison with generic fallback; materializes t/nil. */
    void emitCompare(const std::string &op, Sx *a, Sx *b, Reg target);

    /** Branch form of a numeric comparison (branch if FALSE). */
    void emitCompareBranchFalse(const std::string &op, Sx *a, Sx *b,
                                int falseLabel);

    /** Vector/string indexed read/write with optional full checking. */
    void emitIndexedLoad(Sx *vec, Sx *idx, Reg target, TypeId t);
    void emitIndexedStore(Sx *vec, Sx *idx, Sx *val, Reg target, TypeId t);

    // ---- primitives (codegen_prims.cc) ----

    /** Compile a primitive call; returns false if @p name is not one. */
    bool compilePrimitive(const std::string &name,
                          const std::vector<Sx *> &args, Reg target);

    /** Branch-form predicates; returns false if not handled. */
    bool primCondBranch(Sx *e, int label, bool branchIfTrue);

    /** Expand c[ad]+r chains (cadr, caddr, ...). */
    bool isCxr(const std::string &name) const;
    void compileCxr(const std::string &name, Sx *arg, Reg target);

    /** Integer-test shift amount for high-tag schemes. */
    int highShift() const { return static_cast<int>(scheme_.tagBits()); }

    bool checkingOn() const { return opts_.checking == Checking::Full; }

    void emitSlowBinop(int stubLabel, Reg a, Reg b, Reg target,
                       int doneLabel, CheckCat cat);

    // Cold-section blocks appended after the current function body.
    void addCold(std::function<void()> emitFn);
    void flushCold();

    SxArena &arena_;
    ImageBuilder &image_;
    AsmBuffer &buf_;
    const CompilerOptions &opts_;
    const TagScheme &scheme_;
    RuntimeLabels rt_;

    std::unordered_map<const Sx *, FnInfo> functions_;
    FrameEnv env_;
    int tempTop_ = 0; ///< temps r10..r10+tempTop_-1 in use
    int exprDepth_ = 0; ///< expr() frames live (kMaxExprDepth)
    bool libArithInline_ = false;
    int procedures_ = 0;
    std::vector<std::function<void()>> cold_;
    std::string currentFunction_;
};

} // namespace mxl

#endif // MXLISP_COMPILER_CODEGEN_H_

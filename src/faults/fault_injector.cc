#include "faults/fault_injector.h"

#include <algorithm>
#include <vector>

#include "support/format.h"
#include "support/panic.h"

namespace mxl {

namespace {

/**
 * The CallArgType injector corrupts an argument at the N-th executed
 * call, with N drawn from [0, kCallWindow). A small window keeps the
 * fault early enough that most trials actually reach it (trials where
 * the program performs fewer calls are classified Masked — the fault
 * never fired, which is itself a data point).
 */
constexpr uint64_t kCallWindow = 16;

/** Word indices of the static data area of @p unit's layout. */
void
staticDataRange(const CompiledUnit &unit, uint32_t *lo, uint32_t *hi)
{
    *lo = unit.layout.staticDataBase / 4;
    *hi = unit.layout.staticLimit / 4;
}

/**
 * Candidate words for TagCorrupt: static-area words carrying a
 * pair-typed pointer back into the static area — the cells of quoted
 * list structure. Corrupting one models exactly the fault tag checking
 * exists to catch: a list cell whose type field no longer matches its
 * contents.
 */
std::vector<uint32_t>
pairPointerWords(const Memory &image, const CompiledUnit &unit)
{
    const TagScheme &s = *unit.scheme;
    uint32_t lo, hi;
    staticDataRange(unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi && i < image.size() / 4; ++i) {
        uint32_t w = image.word(i);
        if (w == 0 || s.primaryTag(w) != s.pointerTag(TypeId::Pair))
            continue;
        uint32_t a = s.detagAddr(w);
        if (a >= unit.layout.staticBase && a < unit.layout.staticLimit)
            out.push_back(i);
    }
    return out;
}

/** All nonzero static-data words (BitFlip targets, TagCorrupt fallback). */
std::vector<uint32_t>
nonzeroWords(const Memory &image, const CompiledUnit &unit)
{
    uint32_t lo, hi;
    staticDataRange(unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi && i < image.size() / 4; ++i)
        if (image.word(i) != 0)
            out.push_back(i);
    return out;
}

void
injectTagCorrupt(Memory &image, const CompiledUnit &unit, uint64_t seed)
{
    FaultRng rng(seed);
    const TagScheme &s = *unit.scheme;
    std::vector<uint32_t> sites = pairPointerWords(image, unit);
    if (sites.empty())
        sites = nonzeroWords(image, unit);
    if (sites.empty())
        return; // nothing to corrupt; the trial will classify as Masked
    uint32_t idx = sites[rng.below(sites.size())];
    // XOR a nonzero delta into the tag field: the word keeps its data
    // part (address) but claims a different type.
    uint32_t tagMask = (1u << s.tagBits()) - 1u;
    uint32_t delta = 1u + static_cast<uint32_t>(rng.below(tagMask));
    image.word(idx) ^= delta << s.tagShift();
}

void
injectBitFlip(Memory &image, const CompiledUnit &unit, uint64_t seed)
{
    FaultRng rng(seed);
    std::vector<uint32_t> sites = nonzeroWords(image, unit);
    if (sites.empty())
        return;
    uint32_t idx = sites[rng.below(sites.size())];
    image.word(idx) ^= 1u << rng.below(32);
}

/**
 * The live heap of a paused run, as word indices into the snapshot's
 * memory: [from-space base, heap allocation pointer). Everything in
 * this range was allocated by the program itself since startup (or
 * survived its last collection).
 */
void
liveHeapRange(const MachineSnapshot &snap, const CompiledUnit &unit,
              uint32_t *lo, uint32_t *hi)
{
    uint32_t fromLo =
        snap.memory.word(unit.layout.cellAddr(Cell::FromLo) / 4);
    uint32_t hp = snap.regs[abi::hp];
    uint32_t words = snap.memory.size() / 4;
    *lo = std::min(fromLo / 4, words);
    *hi = std::min(hp / 4, words);
    if (*hi < *lo)
        *hi = *lo;
}

/**
 * Candidate words for HeapTagCorrupt: live-heap words carrying a
 * pair-typed pointer back into the live heap — the cons cells of
 * structure the program built at run time.
 */
std::vector<uint32_t>
heapPairPointerWords(const MachineSnapshot &snap, const CompiledUnit &unit)
{
    const TagScheme &s = *unit.scheme;
    uint32_t lo, hi;
    liveHeapRange(snap, unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi; ++i) {
        uint32_t w = snap.memory.word(i);
        if (w == 0 || s.primaryTag(w) != s.pointerTag(TypeId::Pair))
            continue;
        uint32_t a = s.detagAddr(w);
        if (a / 4 >= lo && a / 4 < hi)
            out.push_back(i);
    }
    return out;
}

/** All nonzero live-heap words (HeapBitFlip targets, fallback sites). */
std::vector<uint32_t>
heapNonzeroWords(const MachineSnapshot &snap, const CompiledUnit &unit)
{
    uint32_t lo, hi;
    liveHeapRange(snap, unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi; ++i)
        if (snap.memory.word(i) != 0)
            out.push_back(i);
    return out;
}

void
injectHeapTagCorrupt(MachineSnapshot &snap, const CompiledUnit &unit,
                     uint64_t seed)
{
    FaultRng rng(seed);
    const TagScheme &s = *unit.scheme;
    std::vector<uint32_t> sites = heapPairPointerWords(snap, unit);
    if (sites.empty())
        sites = heapNonzeroWords(snap, unit);
    if (sites.empty())
        return; // empty heap at the pause point: trial classifies Masked
    uint32_t idx = sites[rng.below(sites.size())];
    uint32_t tagMask = (1u << s.tagBits()) - 1u;
    uint32_t delta = 1u + static_cast<uint32_t>(rng.below(tagMask));
    snap.memory.word(idx) ^= delta << s.tagShift();
}

void
injectHeapBitFlip(MachineSnapshot &snap, const CompiledUnit &unit,
                  uint64_t seed)
{
    FaultRng rng(seed);
    std::vector<uint32_t> sites = heapNonzeroWords(snap, unit);
    if (sites.empty())
        return;
    uint32_t idx = sites[rng.below(sites.size())];
    snap.memory.word(idx) ^= 1u << rng.below(32);
}

/**
 * The live stack of a paused run, as word indices into the snapshot's
 * memory: [sp, stackTop). The stack grows down from stackTop and sp is
 * a raw byte address, so every word in this range is a live slot —
 * saved registers, spilled values, return addresses.
 */
void
liveStackRange(const MachineSnapshot &snap, const CompiledUnit &unit,
               uint32_t *lo, uint32_t *hi)
{
    uint32_t sp = snap.regs[abi::sp];
    uint32_t words = snap.memory.size() / 4;
    *lo = std::min(sp / 4, words);
    *hi = std::min(unit.layout.stackTop / 4, words);
    if (*hi < *lo)
        *hi = *lo;
}

/**
 * Candidate slots for StackTagCorrupt: stack words carrying a
 * pair-typed pointer into the heap or static area — saved list values.
 * Fallback: any nonzero slot (return addresses, fixnums), where a tag
 * corruption turns a datum into something pointer-shaped.
 */
std::vector<uint32_t>
stackPairPointerWords(const MachineSnapshot &snap, const CompiledUnit &unit)
{
    const TagScheme &s = *unit.scheme;
    uint32_t lo, hi;
    liveStackRange(snap, unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi; ++i) {
        uint32_t w = snap.memory.word(i);
        if (w == 0 || s.primaryTag(w) != s.pointerTag(TypeId::Pair))
            continue;
        uint32_t a = s.detagAddr(w);
        if (a >= unit.layout.staticBase && a < unit.layout.stackTop)
            out.push_back(i);
    }
    return out;
}

/** All nonzero live stack slots (StackBitFlip targets, fallback sites). */
std::vector<uint32_t>
stackNonzeroWords(const MachineSnapshot &snap, const CompiledUnit &unit)
{
    uint32_t lo, hi;
    liveStackRange(snap, unit, &lo, &hi);
    std::vector<uint32_t> out;
    for (uint32_t i = lo; i < hi; ++i)
        if (snap.memory.word(i) != 0)
            out.push_back(i);
    return out;
}

void
injectStackTagCorrupt(MachineSnapshot &snap, const CompiledUnit &unit,
                      uint64_t seed)
{
    FaultRng rng(seed);
    const TagScheme &s = *unit.scheme;
    std::vector<uint32_t> sites = stackPairPointerWords(snap, unit);
    if (sites.empty())
        sites = stackNonzeroWords(snap, unit);
    if (sites.empty())
        return; // empty stack at the pause point: trial classifies Masked
    uint32_t idx = sites[rng.below(sites.size())];
    uint32_t tagMask = (1u << s.tagBits()) - 1u;
    uint32_t delta = 1u + static_cast<uint32_t>(rng.below(tagMask));
    snap.memory.word(idx) ^= delta << s.tagShift();
}

void
injectStackBitFlip(MachineSnapshot &snap, const CompiledUnit &unit,
                   uint64_t seed)
{
    FaultRng rng(seed);
    std::vector<uint32_t> sites = stackNonzeroWords(snap, unit);
    if (sites.empty())
        return;
    uint32_t idx = sites[rng.below(sites.size())];
    snap.memory.word(idx) ^= 1u << rng.below(32);
}

/** The call a CallArgType fault pauses at (Hooks::pauseAtCall). */
int64_t
callArgTarget(uint64_t seed)
{
    FaultRng rng(seed);
    return static_cast<int64_t>(rng.below(kCallWindow));
}

/**
 * Substitute the ill-typed argument into a run paused just before the
 * targeted call issues. The draws continue the stream callArgTarget()
 * started, so the site is the same pure function of the seed.
 */
void
injectCallArg(MachineSnapshot &snap, const CompiledUnit &unit,
              uint64_t seed)
{
    FaultRng rng(seed);
    rng.below(kCallWindow); // the target call
    Reg argReg = static_cast<Reg>(abi::arg0 + rng.below(2));
    const TagScheme *s = unit.scheme.get();

    // An ill-typed value is one whose type differs from what the
    // register holds as the call fires.
    uint32_t align = s->alignment(TypeId::Pair);
    uint32_t pairAddr = (unit.layout.heapABase + align - 1) & ~(align - 1);
    uint32_t pairWord = s->encodePointer(TypeId::Pair, pairAddr);
    uint32_t fixWord =
        s->encodeFixnum(static_cast<int64_t>(1 + rng.below(1000)));
    uint32_t &reg = snap.regs[argReg];
    reg = s->wordIsFixnum(reg) ? pairWord : fixWord;
}

} // namespace

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::TagCorrupt:
        return "tag-corrupt";
      case FaultClass::BitFlip:
        return "bit-flip";
      case FaultClass::CallArgType:
        return "call-arg-type";
      case FaultClass::HeapTagCorrupt:
        return "heap-tag-corrupt";
      case FaultClass::HeapBitFlip:
        return "heap-bit-flip";
      case FaultClass::StackTagCorrupt:
        return "stack-tag-corrupt";
      case FaultClass::StackBitFlip:
        return "stack-bit-flip";
    }
    return "?";
}

bool
faultClassIsHeap(FaultClass cls)
{
    return cls == FaultClass::HeapTagCorrupt ||
           cls == FaultClass::HeapBitFlip;
}

bool
faultClassIsStack(FaultClass cls)
{
    return cls == FaultClass::StackTagCorrupt ||
           cls == FaultClass::StackBitFlip;
}

bool
faultClassNeedsPause(FaultClass cls)
{
    return faultClassIsHeap(cls) || faultClassIsStack(cls);
}

std::string
FaultSpec::describe() const
{
    if (faultClassNeedsPause(cls))
        return strcat(faultClassName(cls), "(seed=", seed,
                      ",pause=", pauseCycle, ")");
    return strcat(faultClassName(cls), "(seed=", seed, ")");
}

void
armFault(RunRequest &req, const FaultSpec &spec)
{
    switch (spec.cls) {
      case FaultClass::TagCorrupt:
        req.hooks.imageMutator = [seed = spec.seed](Memory &image,
                                              const CompiledUnit &unit) {
            injectTagCorrupt(image, unit, seed);
        };
        break;
      case FaultClass::BitFlip:
        req.hooks.imageMutator = [seed = spec.seed](Memory &image,
                                              const CompiledUnit &unit) {
            injectBitFlip(image, unit, seed);
        };
        break;
      case FaultClass::CallArgType:
        req.hooks.pauseAtCall = callArgTarget(spec.seed);
        req.hooks.snapshotHook = [seed = spec.seed](MachineSnapshot &snap,
                                              const CompiledUnit &unit) {
            injectCallArg(snap, unit, seed);
        };
        break;
      case FaultClass::HeapTagCorrupt:
        MXL_ASSERT(spec.pauseCycle > 0,
                   "heap-resident faults need FaultSpec::pauseCycle");
        req.hooks.pauseAtCycle = spec.pauseCycle;
        req.hooks.snapshotHook = [seed = spec.seed](MachineSnapshot &snap,
                                              const CompiledUnit &unit) {
            injectHeapTagCorrupt(snap, unit, seed);
        };
        break;
      case FaultClass::HeapBitFlip:
        MXL_ASSERT(spec.pauseCycle > 0,
                   "heap-resident faults need FaultSpec::pauseCycle");
        req.hooks.pauseAtCycle = spec.pauseCycle;
        req.hooks.snapshotHook = [seed = spec.seed](MachineSnapshot &snap,
                                              const CompiledUnit &unit) {
            injectHeapBitFlip(snap, unit, seed);
        };
        break;
      case FaultClass::StackTagCorrupt:
        MXL_ASSERT(spec.pauseCycle > 0,
                   "stack-resident faults need FaultSpec::pauseCycle");
        req.hooks.pauseAtCycle = spec.pauseCycle;
        req.hooks.snapshotHook = [seed = spec.seed](MachineSnapshot &snap,
                                              const CompiledUnit &unit) {
            injectStackTagCorrupt(snap, unit, seed);
        };
        break;
      case FaultClass::StackBitFlip:
        MXL_ASSERT(spec.pauseCycle > 0,
                   "stack-resident faults need FaultSpec::pauseCycle");
        req.hooks.pauseAtCycle = spec.pauseCycle;
        req.hooks.snapshotHook = [seed = spec.seed](MachineSnapshot &snap,
                                              const CompiledUnit &unit) {
            injectStackBitFlip(snap, unit, seed);
        };
        break;
    }
}

} // namespace mxl

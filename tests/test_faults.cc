/**
 * Fault-injection subsystem tests: deterministic seeding, injector
 * behavior on real compiled images, outcome classification, and
 * campaign invariants (replayability, count conservation, and the
 * detection differential between checked and unchecked configurations).
 * Run under -DMXL_SANITIZE=address to check the injectors stay inside
 * the simulated image.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "faults/campaign.h"
#include "faults/fault_injector.h"
#include "faults/stats.h"
#include "runtime/stubs.h"
#include "support/json.h"
#include "support/panic.h"

using namespace mxl;

namespace {

const char *const kSumList =
    "(de sumlist (l) (if (null l) 0 (+ (car l) (sumlist (cdr l)))))"
    "(print (sumlist (quote (1 2 3 4 5 6 7 8 9 10))))";

const char *const kRev =
    "(de rev (l acc) (if (null l) acc (rev (cdr l) (cons (car l) acc))))"
    "(print (length (rev (quote (a b c d e f g h)) nil)))";

CompilerOptions
uncheckedOpts()
{
    return baselineOptions(Checking::Off);
}

CompilerOptions
checkedAllOpts()
{
    CompilerOptions o = baselineOptions(Checking::Full);
    o.hw.branchOnTag = true;
    o.hw.genericArith = true;
    o.hw.checkedMemory = CheckedMem::All;
    return o;
}

/** A golden-shaped report: clean halt with the given output. */
RunReport
goldenReport(const std::string &output = "55\n", uint32_t exitValue = 0)
{
    RunReport rep;
    rep.result.stop = StopReason::Halted;
    rep.result.output = output;
    rep.result.exitValue = exitValue;
    return rep;
}

} // namespace

// ---- seeding ----------------------------------------------------------

TEST(FaultRng, DeterministicStreams)
{
    FaultRng a(42), b(42), c(43);
    for (int i = 0; i < 16; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        EXPECT_NE(va, c.next()); // astronomically unlikely to collide
    }
    FaultRng d(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(d.below(13), 13u);
    EXPECT_EQ(FaultRng::mix(1, 2), FaultRng::mix(1, 2));
    EXPECT_NE(FaultRng::mix(1, 2), FaultRng::mix(1, 3));
    EXPECT_NE(FaultRng::mix(1, 2), FaultRng::mix(2, 2));
}

TEST(FaultSpec, DescribeNamesClassAndSeed)
{
    FaultSpec spec;
    spec.cls = FaultClass::TagCorrupt;
    spec.seed = 99;
    EXPECT_EQ(spec.describe(), "tag-corrupt(seed=99)");
    EXPECT_STREQ(faultClassName(FaultClass::BitFlip), "bit-flip");
    EXPECT_STREQ(faultClassName(FaultClass::CallArgType), "call-arg-type");
    EXPECT_STREQ(faultClassName(FaultClass::HeapTagCorrupt),
                 "heap-tag-corrupt");
    EXPECT_STREQ(faultClassName(FaultClass::HeapBitFlip), "heap-bit-flip");
}

TEST(FaultSpec, HeapClassesArePauseBased)
{
    EXPECT_FALSE(faultClassIsHeap(FaultClass::TagCorrupt));
    EXPECT_FALSE(faultClassIsHeap(FaultClass::BitFlip));
    EXPECT_FALSE(faultClassIsHeap(FaultClass::CallArgType));
    EXPECT_TRUE(faultClassIsHeap(FaultClass::HeapTagCorrupt));
    EXPECT_TRUE(faultClassIsHeap(FaultClass::HeapBitFlip));

    FaultSpec spec;
    spec.cls = FaultClass::HeapBitFlip;
    spec.seed = 7;
    spec.pauseCycle = 1234;
    EXPECT_EQ(spec.describe(), "heap-bit-flip(seed=7,pause=1234)");
}

// ---- injectors on a real compiled image -------------------------------

TEST(FaultInjector, TagCorruptIsDeterministicAndTagConfined)
{
    CompiledUnit unit = compileUnit(kSumList, uncheckedOpts());
    RunRequest req;
    FaultSpec spec;
    spec.cls = FaultClass::TagCorrupt;
    spec.seed = 5;
    armFault(req, spec);
    ASSERT_TRUE(static_cast<bool>(req.hooks.imageMutator));
    ASSERT_FALSE(static_cast<bool>(req.hooks.machineSetup));

    Memory a = unit.memory;
    Memory b = unit.memory;
    req.hooks.imageMutator(a, unit);
    req.hooks.imageMutator(b, unit);

    const TagScheme &s = *unit.scheme;
    int diffs = 0;
    for (uint32_t i = 0; i < a.size() / 4; ++i) {
        uint32_t before = unit.memory.word(i);
        uint32_t after = a.word(i);
        EXPECT_EQ(after, b.word(i)) << "same seed, different image";
        if (before == after)
            continue;
        ++diffs;
        uint32_t delta = before ^ after;
        // Only the tag field changed; the data part is intact.
        EXPECT_NE(s.primaryTag(before), s.primaryTag(after));
        EXPECT_EQ(delta & ~(((1u << s.tagBits()) - 1u) << s.tagShift()),
                  0u);
    }
    EXPECT_EQ(diffs, 1);
}

TEST(FaultInjector, DistinctSeedsCoverDistinctSites)
{
    CompiledUnit unit = compileUnit(kSumList, uncheckedOpts());
    // Across many seeds, the injector must not collapse onto one site.
    int distinctWords = 0;
    std::vector<uint32_t> firstDiff;
    for (uint64_t seed = 0; seed < 24; ++seed) {
        RunRequest req;
        FaultSpec spec;
        spec.cls = FaultClass::TagCorrupt;
        spec.seed = FaultRng::mix(1, seed);
        armFault(req, spec);
        Memory img = unit.memory;
        req.hooks.imageMutator(img, unit);
        for (uint32_t i = 0; i < img.size() / 4; ++i)
            if (img.word(i) != unit.memory.word(i)) {
                bool seen = false;
                for (uint32_t w : firstDiff)
                    seen |= w == i;
                if (!seen) {
                    firstDiff.push_back(i);
                    ++distinctWords;
                }
                break;
            }
    }
    EXPECT_GE(distinctWords, 3);
}

TEST(FaultInjector, BitFlipFlipsExactlyOneBit)
{
    CompiledUnit unit = compileUnit(kRev, uncheckedOpts());
    RunRequest req;
    FaultSpec spec;
    spec.cls = FaultClass::BitFlip;
    spec.seed = 11;
    armFault(req, spec);
    Memory img = unit.memory;
    req.hooks.imageMutator(img, unit);

    int flippedBits = 0;
    for (uint32_t i = 0; i < img.size() / 4; ++i) {
        uint32_t delta = img.word(i) ^ unit.memory.word(i);
        while (delta) {
            flippedBits += delta & 1u;
            delta >>= 1;
        }
    }
    EXPECT_EQ(flippedBits, 1);
}

TEST(FaultInjector, CallArgTypeInstallsMachineHook)
{
    RunRequest req;
    FaultSpec spec;
    spec.cls = FaultClass::CallArgType;
    spec.seed = 3;
    armFault(req, spec);
    EXPECT_FALSE(static_cast<bool>(req.hooks.imageMutator));
    EXPECT_TRUE(static_cast<bool>(req.hooks.machineSetup));
}

// ---- classification ---------------------------------------------------

TEST(Classify, MaskedVsSilentWrongAnswer)
{
    RunReport golden = goldenReport();
    DetectChannel ch;
    EXPECT_EQ(classifyOutcome(goldenReport(), golden, &ch),
              Outcome::Masked);
    EXPECT_EQ(ch, DetectChannel::None);
    EXPECT_EQ(classifyOutcome(goldenReport("54\n"), golden, nullptr),
              Outcome::SilentWrongAnswer);
    EXPECT_EQ(classifyOutcome(goldenReport("55\n", 1), golden, nullptr),
              Outcome::SilentWrongAnswer);
}

TEST(Classify, DetectionChannels)
{
    RunReport golden = goldenReport();
    DetectChannel ch;

    RunReport swCheck = goldenReport();
    swCheck.result.stop = StopReason::Errored;
    swCheck.result.errorCode = rtcode::typeError;
    EXPECT_EQ(classifyOutcome(swCheck, golden, &ch), Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::SoftwareCheck);

    swCheck.result.errorCode = rtcode::undefinedFunction;
    EXPECT_EQ(classifyOutcome(swCheck, golden, &ch), Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::SoftwareCheck);

    RunReport hwHandled = goldenReport();
    hwHandled.result.stop = StopReason::Errored;
    hwHandled.result.errorCode = rtcode::tagTrap;
    EXPECT_EQ(classifyOutcome(hwHandled, golden, &ch), Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::HardwareTrap);

    RunReport hwBare = goldenReport();
    hwBare.result.stop = StopReason::Errored;
    hwBare.result.errorCode =
        encodeUnhandledTrap(TrapKind::TagMismatch, 123);
    EXPECT_EQ(classifyOutcome(hwBare, golden, &ch), Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::HardwareTrap);
}

TEST(Classify, CrashesLimitsAndTimeouts)
{
    RunReport golden = goldenReport();

    RunReport wild = goldenReport();
    wild.result.stop = StopReason::IllegalAccess;
    wild.result.errorCode = 0xdead0000;
    EXPECT_EQ(classifyOutcome(wild, golden, nullptr),
              Outcome::CrashIllegalAccess);

    RunReport div0 = goldenReport();
    div0.result.stop = StopReason::Errored;
    div0.result.errorCode = kDivideByZeroCode;
    EXPECT_EQ(classifyOutcome(div0, golden, nullptr),
              Outcome::CrashIllegalAccess);

    RunReport internal = goldenReport();
    internal.status.code = RunStatus::Code::InternalError;
    EXPECT_EQ(classifyOutcome(internal, golden, nullptr),
              Outcome::CrashIllegalAccess);

    RunReport limit = goldenReport();
    limit.result.stop = StopReason::CycleLimit;
    EXPECT_EQ(classifyOutcome(limit, golden, nullptr),
              Outcome::CycleLimit);

    RunReport timeout = goldenReport();
    timeout.status.code = RunStatus::Code::Timeout;
    timeout.result.stop = StopReason::CycleLimit;
    timeout.result.timedOut = true;
    EXPECT_EQ(classifyOutcome(timeout, golden, nullptr),
              Outcome::CycleLimit);
}

// ---- campaigns --------------------------------------------------------

namespace {

Campaign
smallCampaign()
{
    Campaign c;
    c.programs.push_back({"sumlist", kSumList, 5'000'000});
    c.programs.push_back({"rev", kRev, 5'000'000});
    c.configs.push_back({"unchecked", uncheckedOpts()});
    c.configs.push_back({"checked-all", checkedAllOpts()});
    c.classes = {FaultClass::TagCorrupt, FaultClass::BitFlip,
                 FaultClass::CallArgType};
    c.trials = 10;
    c.seed = 2026;
    c.deadlineSeconds = 10;
    return c;
}

} // namespace

TEST(Campaign, CountsAreConserved)
{
    Engine eng(2);
    Campaign c = smallCampaign();
    CampaignResult r = runCampaign(eng, c);

    ASSERT_EQ(r.configCount, c.configs.size());
    ASSERT_EQ(r.classCount, c.classes.size());
    ASSERT_EQ(r.cells.size(), r.configCount * r.classCount);
    ASSERT_EQ(r.trials.size(), c.programs.size() * c.configs.size() *
                                   c.classes.size() *
                                   static_cast<size_t>(c.trials));
    const int perCell = static_cast<int>(c.programs.size()) * c.trials;
    for (size_t cfg = 0; cfg < r.configCount; ++cfg)
        for (size_t cls = 0; cls < r.classCount; ++cls) {
            const CampaignCell &cell = r.cell(cfg, cls);
            EXPECT_EQ(cell.total(), perCell);
            EXPECT_EQ(cell.hardwareTraps + cell.softwareChecks,
                      cell.detected());
        }
}

TEST(Campaign, ReplayIsIdentical)
{
    Campaign c = smallCampaign();
    Engine eng1(2), eng2(3); // thread count must not matter
    CampaignResult a = runCampaign(eng1, c);
    CampaignResult b = runCampaign(eng2, c);

    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].faultSeed, b.trials[i].faultSeed);
        EXPECT_EQ(a.trials[i].outcome, b.trials[i].outcome) << i;
        EXPECT_EQ(a.trials[i].channel, b.trials[i].channel) << i;
        EXPECT_EQ(a.trials[i].errorCode, b.trials[i].errorCode) << i;
    }
    EXPECT_EQ(a.renderMatrix(), b.renderMatrix());
}

TEST(Campaign, SharedFaultPopulationAcrossConfigs)
{
    // The fault seed depends on (program, class, trial) but NOT the
    // configuration, so detection rates compare the same fault set.
    Campaign c = smallCampaign();
    Engine eng(2);
    CampaignResult r = runCampaign(eng, c);
    for (const TrialRecord &t : r.trials)
        for (const TrialRecord &u : r.trials)
            if (t.program == u.program && t.cls == u.cls &&
                t.trial == u.trial)
                EXPECT_EQ(t.faultSeed, u.faultSeed);
}

TEST(Campaign, CheckedHardwareDetectsMoreTagCorruptions)
{
    // The acceptance differential: full checked-memory hardware must
    // detect strictly more injected tag corruptions than the unchecked
    // baseline (which masks tags off addresses and computes on).
    Campaign c = smallCampaign();
    c.trials = 15;
    Engine eng;
    CampaignResult r = runCampaign(eng, c);

    const size_t tagCls = 0; // TagCorrupt is first in smallCampaign()
    int unchecked = r.cell(0, tagCls).detected();
    int checked = r.cell(1, tagCls).detected();
    EXPECT_GT(checked, unchecked)
        << "\n" << r.renderMatrix();
    // And the checked config's detections include hardware traps.
    EXPECT_GT(r.cell(1, tagCls).hardwareTraps, 0);
}

TEST(Campaign, MatrixRendersEveryConfigAndClass)
{
    Campaign c = smallCampaign();
    c.trials = 4;
    Engine eng(2);
    CampaignResult r = runCampaign(eng, c);
    std::string matrix = r.renderMatrix();
    EXPECT_NE(matrix.find("unchecked"), std::string::npos);
    EXPECT_NE(matrix.find("checked-all"), std::string::npos);
    EXPECT_NE(matrix.find("tag-corrupt"), std::string::npos);
    EXPECT_NE(matrix.find("bit-flip"), std::string::npos);
    EXPECT_NE(matrix.find("call-arg-type"), std::string::npos);
}

// ---- heap-resident fault classes --------------------------------------

TEST(FaultInjector, HeapClassesArmThePauseSeamNotTheImage)
{
    RunRequest req;
    FaultSpec spec;
    spec.cls = FaultClass::HeapTagCorrupt;
    spec.seed = 17;
    spec.pauseCycle = 5000;
    armFault(req, spec);
    EXPECT_FALSE(static_cast<bool>(req.hooks.imageMutator));
    EXPECT_FALSE(static_cast<bool>(req.hooks.machineSetup));
    EXPECT_TRUE(static_cast<bool>(req.hooks.snapshotHook));
    EXPECT_EQ(req.hooks.pauseAtCycle, 5000u);

    RunRequest flip;
    spec.cls = FaultClass::HeapBitFlip;
    armFault(flip, spec);
    EXPECT_TRUE(static_cast<bool>(flip.hooks.snapshotHook));
    EXPECT_EQ(flip.hooks.pauseAtCycle, 5000u);
}

TEST(FaultInjector, HeapInjectionIsDeterministicThroughTheEngine)
{
    // The same heap fault spec applied to the same (program, config)
    // must classify identically across runs and engines — the property
    // journal-based resume depends on.
    Engine eng(2);
    RunRequest golden;
    golden.source = kRev;
    golden.opts = checkedAllOpts();
    RunReport goldenRep = eng.run(golden);
    ASSERT_TRUE(goldenRep.ok()) << goldenRep.status.message;
    ASSERT_GT(goldenRep.result.stats.total, 100u);

    FaultSpec spec;
    spec.cls = FaultClass::HeapTagCorrupt;
    spec.seed = FaultRng::mix(2026, 5);
    spec.pauseCycle = goldenRep.result.stats.total / 2;

    RunRequest a = golden, b = golden;
    armFault(a, spec);
    armFault(b, spec);
    RunReport ra = eng.run(a);
    Engine eng2(1);
    RunReport rb = eng2.run(b);
    ASSERT_TRUE(ra.ok()) << ra.status.message;
    EXPECT_TRUE(ra.result.snapshotTaken);
    EXPECT_TRUE(rb.result.snapshotTaken);
    EXPECT_EQ(ra.result.stop, rb.result.stop);
    EXPECT_EQ(ra.result.output, rb.result.output);
    EXPECT_EQ(ra.result.errorCode, rb.result.errorCode);
    EXPECT_EQ(ra.result.stats.total, rb.result.stats.total);
    EXPECT_EQ(classifyOutcome(ra, goldenRep),
              classifyOutcome(rb, goldenRep));
}

namespace {

Campaign
heapCampaign()
{
    Campaign c = smallCampaign();
    c.classes = {FaultClass::TagCorrupt, FaultClass::HeapTagCorrupt,
                 FaultClass::HeapBitFlip};
    c.trials = 5;
    return c;
}

} // namespace

TEST(Campaign, HeapClassesGetMidRunPauseCycles)
{
    Engine eng(2);
    Campaign c = heapCampaign();
    CampaignResult r = runCampaign(eng, c);

    ASSERT_EQ(r.trials.size(), c.programs.size() * c.configs.size() *
                                   c.classes.size() *
                                   static_cast<size_t>(c.trials));
    for (const TrialRecord &t : r.trials) {
        const RunReport &g = r.golden(t.program, t.config);
        ASSERT_TRUE(g.ok());
        if (faultClassIsHeap(c.classes[t.cls])) {
            // Pause lands strictly inside the golden run: the fault
            // perturbs live state, not the initial or final image.
            EXPECT_GT(t.pauseCycle, 0u) << t.program << "/" << t.config;
            EXPECT_LT(t.pauseCycle, g.result.stats.total);
        } else {
            EXPECT_EQ(t.pauseCycle, 0u);
        }
    }
    // Counts are conserved for the heap classes like any other.
    const int perCell = static_cast<int>(c.programs.size()) * c.trials;
    for (size_t cfg = 0; cfg < r.configCount; ++cfg)
        for (size_t cls = 0; cls < r.classCount; ++cls)
            EXPECT_EQ(r.cell(cfg, cls).total(), perCell);
}

TEST(Campaign, HeapPauseCyclesShareSitesAcrossConfigs)
{
    // The site-selection seed is configuration-independent (shared
    // fault population), while the pause cycle scales with each
    // configuration's own golden length.
    Engine eng(2);
    Campaign c = heapCampaign();
    CampaignResult r = runCampaign(eng, c);
    for (const TrialRecord &t : r.trials)
        for (const TrialRecord &u : r.trials)
            if (t.program == u.program && t.cls == u.cls &&
                t.trial == u.trial)
                EXPECT_EQ(t.faultSeed, u.faultSeed);
}

// ---- durability: journal, resume, skip --------------------------------

namespace {

std::string
tempJournal(const char *name)
{
    return testing::TempDir() + name;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

} // namespace

TEST(Campaign, JournalRecordsHeaderAndEveryTrial)
{
    const std::string path = tempJournal("journal_full.jsonl");
    std::remove(path.c_str());

    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 3;
    CampaignRunOptions options;
    options.journalPath = path;
    size_t hookCalls = 0;
    options.onTrial = [&](const TrialRecord &) { ++hookCalls; };
    CampaignResult r = runCampaign(eng, c, options);

    EXPECT_EQ(r.journaled, 0u);
    EXPECT_EQ(hookCalls, r.trials.size());
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1 + r.trials.size());
    EXPECT_NE(lines[0].find("mxl-campaign"), std::string::npos);
    Json trial;
    ASSERT_TRUE(Json::parse(lines[1], &trial));
    EXPECT_TRUE(trial.find("outcome") != nullptr);
    std::remove(path.c_str());
}

TEST(Campaign, ResumeFromTruncatedJournalConvergesToSameMatrix)
{
    const std::string path = tempJournal("journal_resume.jsonl");
    std::remove(path.c_str());

    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 3;
    CampaignRunOptions options;
    options.journalPath = path;
    CampaignResult full = runCampaign(eng, c, options);

    // Simulate a kill: keep the header plus the first half of the
    // trial lines, then resume from the truncated journal.
    std::vector<std::string> lines = readLines(path);
    ASSERT_GT(lines.size(), 3u);
    const size_t keep = (lines.size() - 1) / 2;
    {
        std::ofstream out(path, std::ios::trunc);
        for (size_t i = 0; i <= keep; ++i)
            out << lines[i] << "\n";
    }
    Engine eng2(3); // thread count must not matter
    CampaignResult resumed = resumeCampaign(eng2, c, path);
    EXPECT_EQ(resumed.journaled, keep);
    EXPECT_EQ(resumed.renderMatrix(), full.renderMatrix());
    ASSERT_EQ(resumed.trials.size(), full.trials.size());
    for (size_t i = 0; i < full.trials.size(); ++i) {
        EXPECT_EQ(resumed.trials[i].outcome, full.trials[i].outcome) << i;
        EXPECT_EQ(resumed.trials[i].channel, full.trials[i].channel) << i;
    }
    // The resumed run re-journals the remainder: the journal now covers
    // the full campaign again.
    EXPECT_EQ(readLines(path).size(), 1 + full.trials.size());

    // Resuming a complete journal runs nothing at all.
    Engine eng3(1);
    CampaignResult replay = resumeCampaign(eng3, c, path);
    EXPECT_EQ(replay.journaled, full.trials.size());
    EXPECT_EQ(replay.renderMatrix(), full.renderMatrix());
    EXPECT_EQ(eng3.cacheStats().misses + eng3.cacheStats().hits,
              c.programs.size() * c.configs.size())
        << "a fully journaled campaign should only re-run goldens";
    std::remove(path.c_str());
}

TEST(Campaign, ResumeRejectsJournalFromDifferentCampaign)
{
    const std::string path = tempJournal("journal_mismatch.jsonl");
    std::remove(path.c_str());

    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 2;
    CampaignRunOptions options;
    options.journalPath = path;
    runCampaign(eng, c, options);

    Campaign other = c;
    other.seed = c.seed + 1; // different fault population
    EXPECT_THROW(resumeCampaign(eng, other, path), MxlError);
    std::remove(path.c_str());
}

TEST(Campaign, BrokenGoldenSkipsItsTrialsInsteadOfAborting)
{
    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 3;
    // An unparsable program: its goldens fail in every configuration,
    // so its trials must come back Skipped while the healthy programs'
    // trials classify normally.
    c.programs.push_back({"broken", "(print (car 1)", 5'000'000});
    CampaignResult r = runCampaign(eng, c);

    ASSERT_EQ(r.trials.size(), c.programs.size() * c.configs.size() *
                                   c.classes.size() *
                                   static_cast<size_t>(c.trials));
    const int brokenIdx = static_cast<int>(c.programs.size()) - 1;
    for (size_t cfg = 0; cfg < c.configs.size(); ++cfg)
        EXPECT_FALSE(r.golden(brokenIdx, cfg).ok());
    int skipped = 0;
    for (const TrialRecord &t : r.trials) {
        if (t.program == brokenIdx) {
            EXPECT_EQ(t.outcome, Outcome::Skipped);
            ++skipped;
        } else {
            EXPECT_NE(t.outcome, Outcome::Skipped);
        }
    }
    EXPECT_EQ(skipped, static_cast<int>(c.configs.size() *
                                        c.classes.size()) *
                           c.trials);
    // The matrix accounts for the hole explicitly.
    for (size_t cfg = 0; cfg < r.configCount; ++cfg)
        for (size_t cls = 0; cls < r.classCount; ++cls)
            EXPECT_EQ(r.cell(cfg, cls).count(Outcome::Skipped), c.trials);
    EXPECT_NE(r.renderMatrix().find("skip"), std::string::npos);
}

TEST(Campaign, OutcomeNamesRoundTrip)
{
    for (int o = 0; o < static_cast<int>(Outcome::NumOutcomes); ++o) {
        Outcome parsed;
        ASSERT_TRUE(
            outcomeFromName(outcomeName(static_cast<Outcome>(o)), &parsed));
        EXPECT_EQ(parsed, static_cast<Outcome>(o));
    }
    Outcome junk;
    EXPECT_FALSE(outcomeFromName("not-an-outcome", &junk));

    for (DetectChannel ch : {DetectChannel::None, DetectChannel::SoftwareCheck,
                             DetectChannel::HardwareTrap}) {
        DetectChannel parsed;
        ASSERT_TRUE(
            detectChannelFromName(detectChannelName(ch), &parsed));
        EXPECT_EQ(parsed, ch);
    }
    DetectChannel junkCh;
    EXPECT_FALSE(detectChannelFromName("not-a-channel", &junkCh));
}

// ---- stack-resident fault classes -------------------------------------

TEST(FaultSpec, StackClassesArePauseBased)
{
    EXPECT_STREQ(faultClassName(FaultClass::StackTagCorrupt),
                 "stack-tag-corrupt");
    EXPECT_STREQ(faultClassName(FaultClass::StackBitFlip),
                 "stack-bit-flip");

    EXPECT_TRUE(faultClassIsStack(FaultClass::StackTagCorrupt));
    EXPECT_TRUE(faultClassIsStack(FaultClass::StackBitFlip));
    EXPECT_FALSE(faultClassIsStack(FaultClass::HeapTagCorrupt));
    EXPECT_FALSE(faultClassIsStack(FaultClass::TagCorrupt));

    // needsPause is exactly heap-or-stack.
    for (FaultClass cls : {FaultClass::TagCorrupt, FaultClass::BitFlip,
                           FaultClass::CallArgType,
                           FaultClass::HeapTagCorrupt,
                           FaultClass::HeapBitFlip,
                           FaultClass::StackTagCorrupt,
                           FaultClass::StackBitFlip})
        EXPECT_EQ(faultClassNeedsPause(cls),
                  faultClassIsHeap(cls) || faultClassIsStack(cls));

    FaultSpec spec;
    spec.cls = FaultClass::StackTagCorrupt;
    spec.seed = 9;
    spec.pauseCycle = 777;
    EXPECT_EQ(spec.describe(), "stack-tag-corrupt(seed=9,pause=777)");
}

TEST(FaultInjector, StackClassesArmThePauseSeamNotTheImage)
{
    for (FaultClass cls :
         {FaultClass::StackTagCorrupt, FaultClass::StackBitFlip}) {
        RunRequest req;
        FaultSpec spec;
        spec.cls = cls;
        spec.seed = 21;
        spec.pauseCycle = 4000;
        armFault(req, spec);
        EXPECT_FALSE(static_cast<bool>(req.hooks.imageMutator));
        EXPECT_FALSE(static_cast<bool>(req.hooks.machineSetup));
        EXPECT_TRUE(static_cast<bool>(req.hooks.snapshotHook));
        EXPECT_EQ(req.hooks.pauseAtCycle, 4000u);
    }
}

TEST(FaultInjector, StackInjectionIsDeterministicThroughTheEngine)
{
    Engine eng(2);
    RunRequest golden;
    golden.source = kRev;
    golden.opts = checkedAllOpts();
    RunReport goldenRep = eng.run(golden);
    ASSERT_TRUE(goldenRep.ok()) << goldenRep.status.message;

    FaultSpec spec;
    spec.cls = FaultClass::StackTagCorrupt;
    spec.seed = FaultRng::mix(2026, 9);
    spec.pauseCycle = goldenRep.result.stats.total / 2;

    RunRequest a = golden, b = golden;
    armFault(a, spec);
    armFault(b, spec);
    RunReport ra = eng.run(a);
    Engine eng2(1);
    RunReport rb = eng2.run(b);
    ASSERT_TRUE(ra.ok()) << ra.status.message;
    EXPECT_TRUE(ra.result.snapshotTaken);
    EXPECT_EQ(ra.result.stop, rb.result.stop);
    EXPECT_EQ(ra.result.output, rb.result.output);
    EXPECT_EQ(ra.result.errorCode, rb.result.errorCode);
    EXPECT_EQ(ra.result.stats.total, rb.result.stats.total);
}

TEST(Campaign, StackClassesGetMidRunPauseCycles)
{
    Engine eng(2);
    Campaign c = smallCampaign();
    c.classes = {FaultClass::TagCorrupt, FaultClass::StackTagCorrupt,
                 FaultClass::StackBitFlip};
    c.trials = 5;
    CampaignResult r = runCampaign(eng, c);

    for (const TrialRecord &t : r.trials) {
        const RunReport &g = r.golden(t.program, t.config);
        ASSERT_TRUE(g.ok());
        if (faultClassIsStack(c.classes[t.cls])) {
            EXPECT_GT(t.pauseCycle, 0u);
            EXPECT_LT(t.pauseCycle, g.result.stats.total);
        } else {
            EXPECT_EQ(t.pauseCycle, 0u);
        }
    }
    const int perCell = static_cast<int>(c.programs.size()) * c.trials;
    for (size_t cfg = 0; cfg < r.configCount; ++cfg)
        for (size_t cls = 0; cls < r.classCount; ++cls)
            EXPECT_EQ(r.cell(cfg, cls).total(), perCell);
}

// ---- classification edge cases ----------------------------------------

TEST(Classify, UnhandledTrapCodeBoundaries)
{
    RunReport golden = goldenReport();
    DetectChannel ch;

    auto errored = [&](int64_t code) {
        RunReport r = goldenReport();
        r.result.stop = StopReason::Errored;
        r.result.errorCode = code;
        return r;
    };

    // The unhandled-trap range is [base + stride, base + 3*stride):
    // kinds ArithFail(1) and TagMismatch(2). Exactly on the lower
    // boundary is a hardware trap; just below it is not.
    const int64_t lo = kUnhandledTrapBase + kUnhandledTrapStride;
    const int64_t hi = kUnhandledTrapBase + 3 * kUnhandledTrapStride;
    EXPECT_EQ(classifyOutcome(errored(lo), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::HardwareTrap);
    EXPECT_EQ(classifyOutcome(errored(hi - 1), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::HardwareTrap);

    // Below and above the trap range, an unknown error code is a
    // software-side detection (the runtime's own `error` path).
    EXPECT_EQ(classifyOutcome(errored(lo - 1), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::SoftwareCheck);
    EXPECT_EQ(classifyOutcome(errored(hi), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::SoftwareCheck);
}

TEST(Classify, ErrorCodeCollisions)
{
    // Codes adjacent to the divide-by-zero sentinel must not inherit
    // its crash classification, and the tag-trap software fallback
    // code must stay a hardware-channel detection even though it
    // numerically neighbors the software type-error code.
    RunReport golden = goldenReport();
    DetectChannel ch;

    auto errored = [&](int64_t code) {
        RunReport r = goldenReport();
        r.result.stop = StopReason::Errored;
        r.result.errorCode = code;
        return r;
    };

    EXPECT_EQ(classifyOutcome(errored(kDivideByZeroCode), golden, &ch),
              Outcome::CrashIllegalAccess);
    EXPECT_EQ(ch, DetectChannel::None);
    EXPECT_EQ(classifyOutcome(errored(kDivideByZeroCode - 1), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(classifyOutcome(errored(kDivideByZeroCode + 1), golden, &ch),
              Outcome::Detected);

    EXPECT_EQ(classifyOutcome(errored(rtcode::tagTrap), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::HardwareTrap);
    EXPECT_EQ(classifyOutcome(errored(rtcode::typeError), golden, &ch),
              Outcome::Detected);
    EXPECT_EQ(ch, DetectChannel::SoftwareCheck);
}

TEST(Campaign, GoldenCycleLimitSkipsThatCellsTrials)
{
    // A golden that exhausts its cycle budget (the analogue of a golden
    // wall-clock timeout: not ok(), but not a compile error either)
    // must Skip its trials, while a faulted run hitting the same
    // budget classifies CycleLimit — the two timeouts are distinct.
    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 2;
    c.programs = {{"starved", kSumList, 100}}; // golden can't finish
    CampaignResult r = runCampaign(eng, c);

    for (size_t cfg = 0; cfg < c.configs.size(); ++cfg) {
        EXPECT_FALSE(r.golden(0, cfg).ok());
        EXPECT_EQ(r.golden(0, cfg).result.stop, StopReason::CycleLimit);
    }
    for (const TrialRecord &t : r.trials) {
        EXPECT_EQ(t.outcome, Outcome::Skipped);
        EXPECT_EQ(t.channel, DetectChannel::None);
        EXPECT_EQ(t.cycles, 0u);
    }
}

// ---- campaign statistics (faults/stats.h) ------------------------------

TEST(FaultStats, WilsonIntervalProperties)
{
    // No data restricts nothing.
    Interval empty = wilsonInterval(0, 0);
    EXPECT_EQ(empty.lo, 0.0);
    EXPECT_EQ(empty.hi, 1.0);

    // 0/N and N/N stay honest: nondegenerate intervals inside [0, 1].
    Interval zero = wilsonInterval(0, 20);
    EXPECT_EQ(zero.lo, 0.0);
    EXPECT_GT(zero.hi, 0.0);
    EXPECT_LT(zero.hi, 0.5);
    Interval full = wilsonInterval(20, 20);
    EXPECT_NEAR(full.hi, 1.0, 1e-9);
    EXPECT_LT(full.lo, 1.0);
    EXPECT_GT(full.lo, 0.5);

    // The interval contains the point estimate and narrows with N.
    Interval half = wilsonInterval(10, 20);
    EXPECT_LT(half.lo, 0.5);
    EXPECT_GT(half.hi, 0.5);
    Interval bigger = wilsonInterval(100, 200);
    EXPECT_GT(bigger.lo, half.lo);
    EXPECT_LT(bigger.hi, half.hi);
}

TEST(FaultStats, PercentileSummaryNearestRank)
{
    EXPECT_EQ(percentileSummary({}).count, 0u);

    std::vector<uint64_t> sample;
    for (uint64_t v = 100; v >= 1; --v)
        sample.push_back(v); // 100..1, unsorted on purpose
    PercentileSummary s = percentileSummary(sample);
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.p50, 50u);
    EXPECT_EQ(s.p90, 90u);
    EXPECT_EQ(s.p99, 99u);
    EXPECT_EQ(s.max, 100u);

    PercentileSummary one = percentileSummary({42});
    EXPECT_EQ(one.min, 42u);
    EXPECT_EQ(one.p50, 42u);
    EXPECT_EQ(one.max, 42u);
}

TEST(FaultStats, CycleHistogramQuantileBounds)
{
    CycleHistogram h;
    EXPECT_EQ(h.quantileBound(0.5), 0u);

    std::vector<uint64_t> sample;
    for (uint64_t i = 0; i < 1000; ++i)
        sample.push_back(i * 37 + 1);
    for (uint64_t v : sample)
        h.add(v);
    EXPECT_EQ(h.count, sample.size());

    // The bucket bound is an upper bound on the exact quantile and at
    // most one power of two above it.
    PercentileSummary exact = percentileSummary(sample);
    uint64_t bound = h.quantileBound(0.5);
    EXPECT_GE(bound, exact.p50);
    EXPECT_LE(bound, exact.p50 * 2);
    EXPECT_GE(h.quantileBound(0.99), exact.p99);
    EXPECT_GE(h.quantileBound(1.0), exact.max);
}

TEST(FaultStats, CoverageCellJsonRoundTripRecomputes)
{
    CoverageCell cell;
    cell.config = "checked";
    cell.cls = "tag-corrupt";
    cell.detected = 17;
    cell.total = 30;
    cell.skipped = 0;
    finishCoverageCell(&cell);
    EXPECT_NEAR(cell.coverage, 17.0 / 30.0, 1e-9);
    EXPECT_LT(cell.ci.lo, cell.coverage);
    EXPECT_GT(cell.ci.hi, cell.coverage);

    Json doc = Json::object();
    Json matrix = Json::array();
    Json tampered = coverageCellJson(cell);
    tampered.set("coverage", 0.99); // a lie the extractor must ignore
    matrix.push(std::move(tampered));
    doc.set("matrix", std::move(matrix));

    std::vector<CoverageCell> cells;
    std::string err;
    ASSERT_TRUE(extractCoverageCells(doc, &cells, &err)) << err;
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config, "checked");
    EXPECT_EQ(cells[0].cls, "tag-corrupt");
    EXPECT_NEAR(cells[0].coverage, 17.0 / 30.0, 1e-9);
    EXPECT_NEAR(cells[0].ci.lo, cell.ci.lo, 1e-9);
    EXPECT_NEAR(cells[0].ci.hi, cell.ci.hi, 1e-9);

    // Skipped trials shrink the denominator.
    CoverageCell holey = cell;
    holey.skipped = 10;
    finishCoverageCell(&holey);
    EXPECT_NEAR(holey.coverage, 17.0 / 20.0, 1e-9);

    // A document without a matrix is an error, not an empty result.
    Json bare = Json::object();
    EXPECT_FALSE(extractCoverageCells(bare, &cells, &err));
}

namespace {

CoverageCell
fixtureCell(const char *config, const char *cls, int detected, int total,
            int skipped = 0)
{
    CoverageCell c;
    c.config = config;
    c.cls = cls;
    c.detected = detected;
    c.total = total;
    c.skipped = skipped;
    finishCoverageCell(&c);
    return c;
}

} // namespace

TEST(FaultStats, CompareCoverageGate)
{
    std::vector<CoverageCell> before = {
        fixtureCell("checked", "tag-corrupt", 17, 30),
        fixtureCell("checked", "bit-flip", 3, 30),
    };
    std::string report;

    // Identical coverage passes.
    EXPECT_TRUE(compareCoverage(before, before, &report));

    // A drop within the noise band passes (intervals overlap).
    std::vector<CoverageCell> noisy = {
        fixtureCell("checked", "tag-corrupt", 15, 30),
        fixtureCell("checked", "bit-flip", 3, 30),
    };
    report.clear();
    EXPECT_TRUE(compareCoverage(before, noisy, &report));

    // A statistically unambiguous drop fails: after.hi < before.lo.
    std::vector<CoverageCell> dropped = {
        fixtureCell("checked", "tag-corrupt", 1, 30),
        fixtureCell("checked", "bit-flip", 3, 30),
    };
    report.clear();
    EXPECT_FALSE(compareCoverage(before, dropped, &report));
    EXPECT_NE(report.find("FAIL"), std::string::npos);

    // Growing the skipped count fails even with identical coverage.
    std::vector<CoverageCell> skippedGrew = {
        fixtureCell("checked", "tag-corrupt", 17, 30, 5),
        fixtureCell("checked", "bit-flip", 3, 30),
    };
    report.clear();
    EXPECT_FALSE(compareCoverage(before, skippedGrew, &report));
    EXPECT_NE(report.find("skipped"), std::string::npos);

    // A cell disappearing fails.
    std::vector<CoverageCell> vanished = {
        fixtureCell("checked", "tag-corrupt", 17, 30),
    };
    report.clear();
    EXPECT_FALSE(compareCoverage(before, vanished, &report));
    EXPECT_NE(report.find("disappeared"), std::string::npos);

    // A new cell is reported but never fails.
    std::vector<CoverageCell> extra = before;
    extra.push_back(fixtureCell("memtag", "stack-tag-corrupt", 6, 30));
    report.clear();
    EXPECT_TRUE(compareCoverage(before, extra, &report));
    EXPECT_NE(report.find("new cell"), std::string::npos);
}

// ---- execution backend tier -------------------------------------------

TEST(Campaign, JournalHeaderStampsBackendTier)
{
    const std::string path = tempJournal("journal_backend.jsonl");
    std::remove(path.c_str());

    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 2;
    c.backend = Backend::Interpreter;
    CampaignRunOptions options;
    options.journalPath = path;
    CampaignResult r = runCampaign(eng, c, options);

    std::vector<std::string> lines = readLines(path);
    ASSERT_GE(lines.size(), 2u);
    Json header;
    ASSERT_TRUE(Json::parse(lines[0], &header));
    const Json *backend = header.find("backend");
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->str(), "interpreter");

    // Every trial line records the tier that actually ran it.
    for (size_t i = 1; i < lines.size(); ++i) {
        Json trial;
        ASSERT_TRUE(Json::parse(lines[i], &trial));
        const Json *tb = trial.find("backend");
        ASSERT_NE(tb, nullptr) << lines[i];
        EXPECT_EQ(tb->str(), "interpreter");
        EXPECT_NE(trial.find("cyc"), nullptr) << lines[i];
    }
    (void)r;
    std::remove(path.c_str());
}

TEST(Campaign, ResumeRefusesJournalFromDifferentBackendTier)
{
    const std::string path = tempJournal("journal_tier.jsonl");
    std::remove(path.c_str());

    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 2;
    c.backend = Backend::Interpreter;
    CampaignRunOptions options;
    options.journalPath = path;
    runCampaign(eng, c, options);

    Campaign other = c;
    other.backend = Backend::Auto;
    try {
        resumeCampaign(eng, other, path);
        FAIL() << "resume accepted a journal from a different tier";
    } catch (const MxlError &e) {
        // The tier-only mismatch gets the targeted diagnostic, not the
        // generic "different campaign" dump.
        EXPECT_NE(std::string(e.what()).find("backend tier"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Campaign, TrialRecordsCarryCyclesAndResolvedBackend)
{
    Engine eng(2);
    Campaign c = smallCampaign();
    c.trials = 3;
    CampaignResult r = runCampaign(eng, c);
    for (const TrialRecord &t : r.trials) {
        ASSERT_NE(t.outcome, Outcome::Skipped);
        EXPECT_GT(t.cycles, 0u);
        // The stamped tier is the one that ran, never the Auto request.
        EXPECT_NE(t.backend, Backend::Auto);
    }
}

TEST(Campaign, AutoTierMatchesInterpreterTier)
{
    // The satellite regression: a campaign run under Backend::Auto
    // (translated where possible, interpreter where a hook demands it)
    // must produce golden and faulted classifications identical to an
    // interpreter-only run — tier selection is a performance decision,
    // never a semantic one.
    Campaign c = smallCampaign();
    c.classes = {FaultClass::TagCorrupt,      FaultClass::BitFlip,
                 FaultClass::HeapTagCorrupt,  FaultClass::HeapBitFlip,
                 FaultClass::StackTagCorrupt, FaultClass::StackBitFlip};
    c.trials = 4;

    Campaign interp = c;
    interp.backend = Backend::Interpreter;
    Campaign autoTier = c;
    autoTier.backend = Backend::Auto;

    Engine e1(2), e2(2);
    CampaignResult ri = runCampaign(e1, interp);
    CampaignResult ra = runCampaign(e2, autoTier);

    ASSERT_EQ(ri.goldens.size(), ra.goldens.size());
    for (size_t g = 0; g < ri.goldens.size(); ++g) {
        EXPECT_EQ(ri.goldens[g].result.output, ra.goldens[g].result.output);
        EXPECT_EQ(ri.goldens[g].result.stats.total,
                  ra.goldens[g].result.stats.total);
    }
    ASSERT_EQ(ri.trials.size(), ra.trials.size());
    int translated = 0;
    for (size_t i = 0; i < ri.trials.size(); ++i) {
        EXPECT_EQ(ri.trials[i].outcome, ra.trials[i].outcome) << i;
        EXPECT_EQ(ri.trials[i].channel, ra.trials[i].channel) << i;
        EXPECT_EQ(ri.trials[i].errorCode, ra.trials[i].errorCode) << i;
        EXPECT_EQ(ri.trials[i].cycles, ra.trials[i].cycles) << i;
        EXPECT_EQ(ri.trials[i].backend, Backend::Interpreter);
        translated += ra.trials[i].backend == Backend::Translated;
        // The heap/stack classes pause into a snapshot, which the
        // translated tier honors; neither config here has memtag.
        if (faultClassNeedsPause(c.classes[size_t(ra.trials[i].cls)]) &&
            ra.trials[i].outcome != Outcome::Skipped) {
            EXPECT_EQ(ra.trials[i].backend, Backend::Translated) << i;
        }
    }
    EXPECT_EQ(ri.renderMatrix(), ra.renderMatrix());
    // The differential has teeth only if Auto actually promoted trials.
    EXPECT_GT(translated, 0);
}

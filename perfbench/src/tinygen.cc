/**
 * @file
 * Seeded tiny MX-Lisp programs (10^2 - 10^4 simulated cycles each)
 * whose printed output is computed here on the host, independently of
 * the compiler. Every program first prints its own index, so two
 * indices never share a source (a novel index is a real cache miss).
 * Their cycle counts are checked against the reference interpreter.
 */

#include <cstdint>
#include <string>

#include "bench.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

namespace {

uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
fib(uint64_t n)
{
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
}

uint64_t
gcd(uint64_t a, uint64_t b)
{
    while (b != 0) {
        uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

} // namespace

TinyProgram
tinyProgram(uint64_t seed, uint64_t index)
{
    uint64_t h = mix(seed, index);
    auto draw = [&h](uint64_t lo, uint64_t hi) {
        h = mix(h, 0x5EED);
        return lo + h % (hi - lo + 1);
    };
    TinyProgram p;
    p.source = strcat("(print ", index, ")\n");
    p.expected = strcat(index, "\n");
    switch (draw(0, 5)) {
      case 0: {
        uint64_t a = draw(0, 999), b = draw(0, 999), c = draw(0, 999);
        p.source += strcat("(print (+ ", a, " (* ", b, " ", c, ")))\n");
        p.expected += strcat(a + b * c, "\n");
        break;
      }
      case 1: {
        uint64_t n = draw(10, 400);
        p.source += strcat("(de sum-to (n)\n"
                           "  (let ((s 0))\n"
                           "    (while (greaterp n 0)\n"
                           "      (setq s (+ s n))\n"
                           "      (setq n (sub1 n)))\n"
                           "    s))\n"
                           "(print (sum-to ",
                           n, "))\n");
        p.expected += strcat(n * (n + 1) / 2, "\n");
        break;
      }
      case 2: {
        uint64_t k = draw(3, 12);
        p.source += strcat("(de fib (n)\n"
                           "  (if (lessp n 2) n\n"
                           "      (+ (fib (- n 1)) (fib (- n 2)))))\n"
                           "(print (fib ",
                           k, "))\n");
        p.expected += strcat(fib(k), "\n");
        break;
      }
      case 3: {
        uint64_t n = draw(2, 8);
        std::string items, reversed;
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t v = draw(0, 99);
            items += strcat(i ? " " : "", v);
            reversed = strcat(v, i ? " " : "", reversed);
        }
        p.source += strcat("(print (reverse (list ", items, ")))\n",
                           "(print (length (list ", items, ")))\n");
        p.expected += strcat("(", reversed, ")\n", n, "\n");
        break;
      }
      case 4: {
        uint64_t g = draw(1, 50);
        uint64_t a = g * draw(1, 400), b = g * draw(1, 400);
        p.source += strcat("(print (gcd ", a, " ", b, "))\n");
        p.expected += strcat(gcd(a, b), "\n");
        break;
      }
      default: {
        uint64_t n = draw(4, 120), k = draw(1, 9);
        p.source += strcat("(de vsum (n k)\n"
                           "  (let ((v (mkvect n)) (i 0) (s 0))\n"
                           "    (while (lessp i n)\n"
                           "      (putv v i (* i k))\n"
                           "      (setq i (add1 i)))\n"
                           "    (setq i 0)\n"
                           "    (while (lessp i n)\n"
                           "      (setq s (+ s (getv v i)))\n"
                           "      (setq i (add1 i)))\n"
                           "    s))\n"
                           "(print (vsum ",
                           n, " ", k, "))\n");
        p.expected += strcat(k * n * (n - 1) / 2, "\n");
        break;
      }
    }
    return p;
}

void
checkTinyCycles(Engine &engine, uint64_t seed,
                const std::vector<std::pair<uint64_t, uint64_t>> &seen,
                Result *r)
{
    std::map<uint64_t, uint64_t> cycles;
    for (const auto &[index, n] : seen) {
        auto [it, fresh] = cycles.emplace(index, n);
        if (!fresh && it->second != n)
            r->mismatch(strcat("tiny/", index, ": cycle count varies"));
    }
    const std::vector<std::pair<uint64_t, uint64_t>> todo(cycles.begin(),
                                                          cycles.end());
    parallelFor(todo.size(), loadThreads(), [&](unsigned, size_t i) {
        const auto [index, n] = todo[i];
        const TinyProgram p = tinyProgram(seed, index);
        Engine::CompileOutcome c = engine.compile(p.source, CompilerOptions());
        if (!c.status.ok()) {
            r->mismatch(strcat("tiny/", index, ": does not compile"));
            return;
        }
        RunResult ref = runUnitOn(*c.unit, materialize(*c.unit));
        if (ref.stats.total != n || ref.output != p.expected)
            r->mismatch(strcat("tiny/", index, ": ", n,
                               " cycles, interpreter ", ref.stats.total));
    });
}

} // namespace perfbench

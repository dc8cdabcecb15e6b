/**
 * @file
 * MX-Lisp reader: text -> S-expressions.
 *
 * Supports integers, symbols, strings, lists, dotted pairs, quote ('x),
 * and ';' comments. Symbol names are case-sensitive and lower-case by
 * convention.
 */

#ifndef MXLISP_SEXPR_READER_H_
#define MXLISP_SEXPR_READER_H_

#include <string>
#include <vector>

#include "sexpr/sexpr.h"

namespace mxl {

/**
 * Deepest list/quote nesting the reader accepts. The reader recurses
 * once per level, so a bound keeps hostile input (say, 100k open
 * parens) a fatal() instead of a stack overflow; the benchmark
 * programs nest at most 15 deep.
 */
inline constexpr int kMaxReadDepth = 1000;

/** Parse every top-level form in @p text. Throws fatal() on errors,
 *  including nesting deeper than kMaxReadDepth. */
std::vector<Sx *> readAll(SxArena &arena, const std::string &text);

/** Parse exactly one form; fatal if none or trailing garbage. */
Sx *readOne(SxArena &arena, const std::string &text);

} // namespace mxl

#endif // MXLISP_SEXPR_READER_H_

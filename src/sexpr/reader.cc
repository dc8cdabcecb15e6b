#include "sexpr/reader.h"

#include <cctype>

#include "support/panic.h"

namespace mxl {

namespace {

class Reader
{
  public:
    Reader(SxArena &arena, const std::string &text)
        : arena_(arena), text_(text)
    {}

    std::vector<Sx *>
    readAll()
    {
        std::vector<Sx *> out;
        skipWs();
        while (!eof()) {
            out.push_back(readForm());
            skipWs();
        }
        return out;
    }

  private:
    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }
    char
    next()
    {
        char c = text_[pos_++];
        if (c == '\n')
            ++line_;
        return c;
    }

    void
    skipWs()
    {
        while (!eof()) {
            char c = peek();
            if (c == ';') {
                while (!eof() && peek() != '\n')
                    next();
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                next();
            } else {
                break;
            }
        }
    }

    [[noreturn]] void
    err(const std::string &msg)
    {
        fatal("reader (line ", line_, "): ", msg);
    }

    static bool
    symbolChar(char c)
    {
        if (std::isalnum(static_cast<unsigned char>(c)))
            return true;
        switch (c) {
          case '-': case '+': case '*': case '/': case '<': case '>':
          case '=': case '!': case '?': case '_': case '&': case '%':
          case '$': case '.': case ':':
            return true;
          default:
            return false;
        }
    }

    /** Counts one nesting level for as long as it lives. */
    struct Nest
    {
        explicit Nest(Reader &r) : r_(r)
        {
            if (++r_.depth_ > kMaxReadDepth)
                r_.err(strcat("forms nested deeper than ", kMaxReadDepth,
                              " levels"));
        }
        ~Nest() { --r_.depth_; }
        Reader &r_;
    };

    Sx *
    readForm()
    {
        skipWs();
        if (eof())
            err("unexpected end of input");
        char c = peek();
        if (c == '(') {
            Nest nest(*this);
            next();
            return readList();
        }
        if (c == ')')
            err("unexpected ')'");
        if (c == '\'') {
            Nest nest(*this);
            next();
            Sx *form = readForm();
            return arena_.cons(arena_.sym("quote"),
                               arena_.cons(form, arena_.nil()));
        }
        if (c == '"')
            return readString();
        return readAtom();
    }

    Sx *
    readList()
    {
        std::vector<Sx *> elems;
        Sx *tail = arena_.nil();
        while (true) {
            skipWs();
            if (eof())
                err("unterminated list");
            if (peek() == ')') {
                next();
                break;
            }
            // Dotted pair: `.` followed by a delimiter.
            if (peek() == '.' && pos_ + 1 < text_.size() &&
                !symbolChar(text_[pos_ + 1])) {
                next();
                tail = readForm();
                skipWs();
                if (eof() || peek() != ')')
                    err("malformed dotted pair");
                next();
                break;
            }
            elems.push_back(readForm());
        }
        Sx *l = tail;
        for (auto it = elems.rbegin(); it != elems.rend(); ++it)
            l = arena_.cons(*it, l);
        return l;
    }

    Sx *
    readString()
    {
        next(); // opening quote
        std::string s;
        while (true) {
            if (eof())
                err("unterminated string");
            char c = next();
            if (c == '"')
                break;
            if (c == '\\') {
                if (eof())
                    err("unterminated escape");
                char e = next();
                switch (e) {
                  case 'n': s += '\n'; break;
                  case 't': s += '\t'; break;
                  case '\\': s += '\\'; break;
                  case '"': s += '"'; break;
                  default: err("bad escape");
                }
            } else {
                s += c;
            }
        }
        return arena_.str(std::move(s));
    }

    Sx *
    readAtom()
    {
        std::string tok;
        while (!eof() && symbolChar(peek()))
            tok += next();
        if (tok.empty())
            err(strcat("unexpected character '", peek(), "'"));

        // Integer?
        size_t i = (tok[0] == '-' || tok[0] == '+') ? 1 : 0;
        bool numeric = i < tok.size();
        for (size_t k = i; k < tok.size(); ++k) {
            if (!std::isdigit(static_cast<unsigned char>(tok[k]))) {
                numeric = false;
                break;
            }
        }
        if (numeric)
            return arena_.num(std::stoll(tok));
        return arena_.sym(tok);
    }

    SxArena &arena_;
    const std::string &text_;
    size_t pos_ = 0;
    int line_ = 1;
    int depth_ = 0; ///< lists and quotes open (see Nest)
};

} // namespace

std::vector<Sx *>
readAll(SxArena &arena, const std::string &text)
{
    return Reader(arena, text).readAll();
}

Sx *
readOne(SxArena &arena, const std::string &text)
{
    auto forms = readAll(arena, text);
    if (forms.size() != 1)
        fatal("expected exactly one form, got ", forms.size());
    return forms[0];
}

} // namespace mxl

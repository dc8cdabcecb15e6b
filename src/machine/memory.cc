#include "machine/memory.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "support/format.h"
#include "support/panic.h"

namespace mxl {

ZeroPages::ZeroPages(size_t bytes)
    : bytes_(bytes), dirty_((pageCount() + 63) / 64, 0)
{
    if (bytes_ == 0)
        return;
    const size_t len = pageCount() * kPageBytes;
    void *p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    // One write must materialize one small page, not a 2 MiB huge one.
    ::madvise(p, len, MADV_NOHUGEPAGE);
#endif
    base_ = static_cast<uint8_t *>(p);
}

ZeroPages::~ZeroPages()
{
    if (base_)
        ::munmap(base_, pageCount() * kPageBytes);
}

ZeroPages::ZeroPages(const ZeroPages &o) : ZeroPages(o.bytes_)
{
    *this = o;
}

ZeroPages::ZeroPages(ZeroPages &&o) noexcept
{
    swap(o);
}

ZeroPages &
ZeroPages::operator=(const ZeroPages &o)
{
    if (this == &o)
        return *this;
    if (bytes_ != o.bytes_)
        return *this = ZeroPages(o);
    // Visit every page dirty on either side: copy the source's, re-zero
    // the ones only this buffer had written.
    for (size_t i = 0; i < dirty_.size(); ++i) {
        for (uint64_t bits = dirty_[i] | o.dirty_[i]; bits != 0;
             bits &= bits - 1) {
            const size_t p = i * 64 + std::countr_zero(bits);
            uint8_t *dst = base_ + p * kPageBytes;
            if (o.pageDirty(p))
                std::memcpy(dst, o.base_ + p * kPageBytes, pageBytes(p));
            else
                std::memset(dst, 0, pageBytes(p));
        }
        dirty_[i] = o.dirty_[i];
    }
    return *this;
}

ZeroPages &
ZeroPages::operator=(ZeroPages &&o) noexcept
{
    ZeroPages taken(std::move(o));
    swap(taken);
    return *this;
}

void
ZeroPages::swap(ZeroPages &o) noexcept
{
    std::swap(base_, o.base_);
    std::swap(bytes_, o.bytes_);
    std::swap(dirty_, o.dirty_);
}

size_t
ZeroPages::pageBytes(size_t p) const
{
    return std::min(kPageBytes, bytes_ - p * kPageBytes);
}

uint8_t *
ZeroPages::data()
{
    std::fill(dirty_.begin(), dirty_.end(), ~uint64_t{0});
    if (size_t tail = pageCount() % 64)
        dirty_.back() = (uint64_t{1} << tail) - 1;
    return base_;
}

void
ZeroPages::markWritten()
{
    if (base_ == nullptr)
        return;
    bool ok = false;
#if defined(__linux__)
    // One 64-bit pagemap entry per host page: bit 63 present, bit 62
    // swapped. Either means the host materialized the page, i.e. it
    // was read or written; a never-touched page has neither.
    const size_t sys = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
    if (fd >= 0 && sys % kPageBytes == 0) {
        const size_t first = reinterpret_cast<uintptr_t>(base_) / sys;
        const size_t hostPages = (pageCount() * kPageBytes + sys - 1) / sys;
        std::vector<uint64_t> map(hostPages);
        const ssize_t want = static_cast<ssize_t>(hostPages * 8);
        ok = ::pread(fd, map.data(), static_cast<size_t>(want),
                     static_cast<off_t>(first * 8)) == want;
        const size_t per = sys / kPageBytes;
        static const uint8_t kZero[kPageBytes] = {};
        for (size_t h = 0; ok && h < hostPages; ++h) {
            if ((map[h] >> 62) == 0)
                continue;
            for (size_t p = h * per; p < (h + 1) * per && p < pageCount();
                 ++p) {
                // A swapped page is not read back just to test it.
                if (!pageDirty(p) &&
                    ((map[h] >> 63) == 0 ||
                     std::memcmp(base_ + p * kPageBytes, kZero,
                                 pageBytes(p)) != 0))
                    dirty_[p >> 6] |= uint64_t{1} << (p & 63);
            }
        }
    }
    if (fd >= 0)
        ::close(fd);
#endif
    if (!ok)
        data();
}

size_t
ZeroPages::dirtyPages() const
{
    size_t n = 0;
    for (uint64_t bits : dirty_)
        n += static_cast<size_t>(std::popcount(bits));
    return n;
}

size_t
ZeroPages::residentPages() const
{
    if (base_ == nullptr)
        return 0;
#if defined(__linux__)
    const size_t sys = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t len = pageCount() * kPageBytes;
    std::vector<unsigned char> vec((len + sys - 1) / sys);
    if (::mincore(base_, len, vec.data()) == 0) {
        size_t n = 0;
        for (unsigned char v : vec)
            n += v & 1;
        return n * sys / kPageBytes;
    }
#endif
    return dirtyPages();
}

bool
ZeroPages::operator==(const ZeroPages &o) const
{
    if (bytes_ != o.bytes_)
        return false;
    static const uint8_t kZero[kPageBytes] = {};
    for (size_t i = 0; i < dirty_.size(); ++i) {
        for (uint64_t bits = dirty_[i] | o.dirty_[i]; bits != 0;
             bits &= bits - 1) {
            const size_t p = i * 64 + std::countr_zero(bits);
            const uint8_t *a = pageDirty(p) ? base_ + p * kPageBytes : kZero;
            const uint8_t *b =
                o.pageDirty(p) ? o.base_ + p * kPageBytes : kZero;
            if (std::memcmp(a, b, pageBytes(p)) != 0)
                return false;
        }
    }
    return true;
}

Memory::Memory(uint32_t bytes) : pages_(size_t{(bytes + 3u) / 4u} * 4)
{
}

void
Memory::outOfBounds(const char *what, uint32_t addr)
{
    fatal("memory ", what, " out of bounds: ", hex32(addr));
}

uint32_t &
Memory::word(uint32_t index)
{
    MXL_ASSERT(index < size() / 4, "word index out of range");
    return *slot(index);
}

uint32_t
Memory::word(uint32_t index) const
{
    MXL_ASSERT(index < size() / 4, "word index out of range");
    return words()[index];
}

} // namespace mxl

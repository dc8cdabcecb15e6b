/**
 * @file
 * Simulated data memory: a flat, word-aligned 32-bit address space.
 *
 * Like MIPS-X, memory is word-addressed: the bottom two bits of every
 * effective address are dropped before the access (this is what makes
 * 2-bit low tags free, §5.2).
 *
 * Backing. An image is one lazily zeroed anonymous mapping (ZeroPages
 * below). Constructing the full 32 MiB address space maps nothing; the
 * host materializes a page only when something writes it, and a page
 * nobody wrote reads as zero. Every writer goes through this class —
 * store(), the mutable word(), data() — and each write marks its 4 KiB
 * page in a dirty bitmap. The one exception is the translated
 * executor, which writes through untrackedData() and re-derives the
 * bitmap with markWritten() before its image is copied. A copy (a run image cloned from a cached
 * pristine image, a snapshot, a restore) maps a fresh region and copies
 * only the source's dirty pages, so it costs the pages the program
 * touched, not the address space: a pristine image is a few dozen
 * pages. The bitmap, not the kernel's view of residency, decides what
 * is copied, so a copy is exact whatever the host does with its pages;
 * residentPages() asks the kernel (mincore(2)) what the mapping holds,
 * for cache accounting and tests.
 *
 * Out-of-range accesses are deterministic, never UB: load()/store()
 * beyond the image raise fatal() (an MxlError), and callers that need a
 * non-throwing path — the Machine turns a wild access into a
 * StopReason::IllegalAccess stop — probe with inBounds() first.
 */

#ifndef MXLISP_MACHINE_MEMORY_H_
#define MXLISP_MACHINE_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mxl {

/**
 * A lazily zeroed, page-sparse byte buffer: an anonymous mapping plus a
 * bitmap of the kPageBytes pages written through touch()/data(). Pages
 * outside the bitmap are zero. Copies and assignment move only dirty
 * pages (assignment also re-zeroes pages only the destination had
 * dirtied); equality compares only pages dirty on either side.
 */
class ZeroPages
{
  public:
    /** Granule of the dirty bitmap (and of every copy). */
    static constexpr size_t kPageBytes = 4096;

    explicit ZeroPages(size_t bytes = 0);
    ~ZeroPages();
    ZeroPages(const ZeroPages &o);
    ZeroPages(ZeroPages &&o) noexcept;
    ZeroPages &operator=(const ZeroPages &o);
    ZeroPages &operator=(ZeroPages &&o) noexcept;

    size_t size() const { return bytes_; }

    /** Read-only view of all bytes (null when empty). */
    const uint8_t *bytes() const { return base_; }

    /** Mark the page holding byte @p offset written; returns its
     *  address. The caller's write must not cross into the next page. */
    uint8_t *
    touch(size_t offset)
    {
        size_t p = offset / kPageBytes;
        dirty_[p >> 6] |= uint64_t{1} << (p & 63);
        return base_ + offset;
    }

    /** Writable view of all bytes: conservatively marks every page. */
    uint8_t *data();

    /**
     * Writable view of all bytes that marks nothing, for a writer too
     * hot to mark pages as it goes. Until markWritten() runs, pages
     * written through it may be missing from the bitmap, so copies,
     * comparisons and serialization can drop them.
     */
    uint8_t *untracked() { return base_; }

    /**
     * Add the pages written through untracked() to the bitmap: every
     * clean page the host holds for the mapping (present or swapped
     * out, per /proc/self/pagemap) whose bytes are not all zero. A page
     * the host never materialized was never written and reads as zero.
     * Where pagemap cannot be read, marks every page, like data().
     */
    void markWritten();

    size_t pageCount() const { return (bytes_ + kPageBytes - 1) / kPageBytes; }

    /** True once page @p p has been written; a clean page is zero. */
    bool
    pageDirty(size_t p) const
    {
        return (dirty_[p >> 6] >> (p & 63)) & 1;
    }

    /** Pages written so far (the cost of a copy). */
    size_t dirtyPages() const;

    /** kPageBytes pages the host actually holds for this buffer,
     *  by mincore(2); dirtyPages() where that is unavailable. */
    size_t residentPages() const;

    bool operator==(const ZeroPages &o) const;

  private:
    size_t pageBytes(size_t p) const;
    void swap(ZeroPages &o) noexcept;

    uint8_t *base_ = nullptr;
    size_t bytes_ = 0;
    std::vector<uint64_t> dirty_;
};

class Memory
{
  public:
    explicit Memory(uint32_t bytes);

    /** Size in bytes. */
    uint32_t size() const { return static_cast<uint32_t>(pages_.size()); }

    /** True if byte address @p addr falls inside the image. */
    bool
    inBounds(uint32_t addr) const
    {
        return addr < pages_.size();
    }

    /** Load the word at byte address @p addr (bottom 2 bits dropped).
     *  fatal() when out of range. */
    uint32_t
    load(uint32_t addr) const
    {
        if (!inBounds(addr)) [[unlikely]]
            outOfBounds("load", addr);
        return words()[addr >> 2];
    }

    /** Store @p w at byte address @p addr (bottom 2 bits dropped).
     *  fatal() when out of range. */
    void
    store(uint32_t addr, uint32_t w)
    {
        if (!inBounds(addr)) [[unlikely]]
            outOfBounds("store", addr);
        *slot(addr >> 2) = w;
    }

    /** Direct word access for image building and tests. The mutable
     *  overload marks the word's page written. */
    uint32_t &word(uint32_t index);
    uint32_t word(uint32_t index) const;

    /** All words as one raw array: marks every page. */
    uint32_t *data() { return reinterpret_cast<uint32_t *>(pages_.data()); }

    /** All words as one raw array that marks nothing; see
     *  ZeroPages::untracked(). The translated executor writes here and
     *  calls markWritten() before the image leaves it. */
    uint32_t *
    untrackedData()
    {
        return reinterpret_cast<uint32_t *>(pages_.untracked());
    }

    /** ZeroPages::markWritten(). */
    void markWritten() { pages_.markWritten(); }

    /** The backing, for page-wise readers (snapshot serialization). */
    const ZeroPages &pages() const { return pages_; }

    /** Pages written so far: what copying this image costs. */
    size_t dirtyPages() const { return pages_.dirtyPages(); }

    /** ZeroPages::kPageBytes pages the host holds for this image. */
    size_t residentPages() const { return pages_.residentPages(); }

    /** Same size and same contents. */
    bool operator==(const Memory &o) const = default;

  private:
    [[noreturn]] static void outOfBounds(const char *what, uint32_t addr);

    const uint32_t *
    words() const
    {
        return reinterpret_cast<const uint32_t *>(pages_.bytes());
    }

    uint32_t *
    slot(uint32_t index)
    {
        return reinterpret_cast<uint32_t *>(
            pages_.touch(size_t{index} * 4));
    }

    ZeroPages pages_;
};

} // namespace mxl

#endif // MXLISP_MACHINE_MEMORY_H_

#pragma once
/// \file circular_buffer.hpp
/// Circular buffers (CBs): the FIFO pipes between baby cores inside a Tensix
/// core (paper Section II-A). A CB is a ring of fixed-size pages in local
/// SRAM following a producer-consumer protocol:
///   producer: cb_reserve_back -> fill write_ptr() -> cb_push_back
///   consumer: cb_wait_front  -> read read_ptr()   -> cb_pop_front
///
/// Includes the paper's Section VI SDK extension: set_read_ptr() redirects
/// the consumer-side read pointer at arbitrary local memory so FPU ops can
/// consume data in place without the data mover copying it into the CB.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ttsim/sim/sync.hpp"
#include "ttsim/sim/trace.hpp"

namespace ttsim::sim {

class CircularBuffer {
 public:
  /// \param storage backing pages in the owning core's SRAM
  ///        (page_size * num_pages bytes).
  /// \param trace optional sink recording push/pop occupancy and blocked
  ///        full/empty waits (`core`/`cb_id` label the events); nullptr
  ///        disables tracing with no behavioural difference.
  /// \param kernel_local declared for one kernel's private use (see
  ///        kernel_local()).
  CircularBuffer(Engine& engine, std::byte* storage, std::uint32_t page_size,
                 std::uint32_t num_pages, TraceSink* trace = nullptr,
                 int core = -1, int cb_id = -1, bool kernel_local = false)
      : storage_(storage),
        page_size_(page_size),
        num_pages_(num_pages),
        live_(num_pages, 0),
        space_(engine),
        data_(engine),
        trace_(trace),
        core_(core),
        cb_id_(cb_id),
        kernel_local_(kernel_local) {
    TTSIM_CHECK(page_size_ > 0);
    TTSIM_CHECK(num_pages_ > 0);
    TTSIM_CHECK(storage_ != nullptr);
    space_.set_site({WaitSite::Kind::kCbFull, core_, cb_id_});
    data_.set_site({WaitSite::Kind::kCbEmpty, core_, cb_id_});
  }

  std::uint32_t page_size() const { return page_size_; }
  std::uint32_t num_pages() const { return num_pages_; }
  /// Declared to be used by one kernel only (a compute kernel's
  /// intermediate accumulator): no other process can observe its ops, so
  /// the kernel layer runs them ahead of the engine, and the Device rejects
  /// a second kernel touching it.
  bool kernel_local() const { return kernel_local_; }

  /// Pages currently committed and not yet popped.
  std::uint32_t pages_available() const { return committed_; }
  /// Pages free for the producer.
  std::uint32_t pages_free() const { return num_pages_ - committed_ - pending_; }

  // --- producer side ---

  /// Block until `pages` pages are free for writing.
  void reserve_back(std::uint32_t pages) {
    check_pages(pages);
    if (trace_ != nullptr && pages_free() < pages) {
      // Record the blocked interval only when actually blocked, so a
      // free-flowing pipeline produces no wait events.
      const SimTime t0 = trace_->now();
      while (pages_free() < pages) space_.wait();
      trace_->record(TraceEventKind::kCbFullWait, t0, trace_->now() - t0,
                     {core_, cb_id_, static_cast<std::int32_t>(pages)});
      return;
    }
    while (pages_free() < pages) space_.wait();
  }

  /// Commit `pages` previously reserved/filled pages to the consumer.
  void push_back(std::uint32_t pages) {
    check_pages(pages);
    TTSIM_CHECK_MSG(pages_free() >= pages,
                    "cb_push_back without a matching cb_reserve_back");
    wr_page_ = ring(wr_page_, pages);
    committed_ += pages;
    override_wr_ptr_ = nullptr;  // an override is only valid for one page
    if (trace_ != nullptr) {
      trace_->record(TraceEventKind::kCbPush, trace_->now(), 0,
                     {core_, cb_id_, static_cast<std::int32_t>(committed_),
                      0, static_cast<std::uint64_t>(pages) * page_size_});
    }
    data_.notify_all();
  }

  /// Pointer to the current producer page (k pages ahead with `page_offset`,
  /// or the override if set).
  std::byte* write_ptr(std::uint32_t page_offset = 0) {
    if (override_wr_ptr_ != nullptr && page_offset == 0) return override_wr_ptr_;
    return storage_ + static_cast<std::size_t>(ring(wr_page_, page_offset)) * page_size_;
  }

  // --- consumer side ---

  /// Block until `pages` pages have been committed by the producer.
  void wait_front(std::uint32_t pages) {
    check_pages(pages);
    if (trace_ != nullptr && committed_ < pages) {
      const SimTime t0 = trace_->now();
      while (committed_ < pages) data_.wait();
      trace_->record(TraceEventKind::kCbEmptyWait, t0, trace_->now() - t0,
                     {core_, cb_id_, static_cast<std::int32_t>(pages)});
      return;
    }
    while (committed_ < pages) data_.wait();
  }

  /// Free `pages` consumed pages back to the producer.
  void pop_front(std::uint32_t pages) {
    check_pages(pages);
    TTSIM_CHECK_MSG(committed_ >= pages, "cb_pop_front past the committed pages");
    committed_ -= pages;
    for (std::uint32_t p = 0; p < pages; ++p) live_[ring(rd_page_, p)] = 0;
    rd_page_ = ring(rd_page_, pages);
    clear_read_ptr();  // an override is only valid for the front page
    if (trace_ != nullptr) {
      trace_->record(TraceEventKind::kCbPop, trace_->now(), 0,
                     {core_, cb_id_, static_cast<std::int32_t>(committed_),
                      0, static_cast<std::uint64_t>(pages) * page_size_});
    }
    space_.notify_all();
  }

  /// Pointer to the current consumer page (or the override, if set).
  const std::byte* read_ptr(std::uint32_t page_offset = 0) const {
    if (override_rd_ptr_ != nullptr && page_offset == 0) return override_rd_ptr_;
    return storage_ + static_cast<std::size_t>(ring(rd_page_, page_offset)) * page_size_;
  }

  /// The paper's cb_set_rd_ptr / llk_set_read_ptr extension: alias the front
  /// page at arbitrary local memory. Cleared by the next pop_front.
  /// `valid_bytes` bounds how much of the aliased page carries meaningful
  /// data (0 means "the whole page"). FPU tile ops fetch a full tile on the
  /// simulated clock, but lanes past `valid_bytes` are never computed on the
  /// host. Timing does not depend on it; the race detector bounds the read
  /// it records by it (read_valid_bytes()).
  void set_read_ptr(const std::byte* p, std::uint32_t valid_bytes = 0) {
    TTSIM_CHECK(p != nullptr);
    override_rd_ptr_ = p;
    override_rd_valid_ = valid_bytes;
  }
  void clear_read_ptr() {
    override_rd_ptr_ = nullptr;
    override_rd_valid_ = 0;
  }
  bool has_read_ptr_override() const { return override_rd_ptr_ != nullptr; }
  /// Meaningful bytes behind the current read pointer (override annotation,
  /// else the page size): the span the race detector records.
  std::uint32_t read_valid_bytes() const {
    if (override_rd_ptr_ != nullptr && override_rd_valid_ > 0) return override_rd_valid_;
    return page_size_;
  }

  /// Leading bytes of front page `page_offset` whose values can reach an
  /// output, 0 meaning the whole page: the override's `valid_bytes` for the
  /// aliased front page, else what set_live_bytes() recorded for the page
  /// since it was last popped.
  std::uint32_t live_bytes(std::uint32_t page_offset = 0) const {
    if (override_rd_ptr_ != nullptr && page_offset == 0) return override_rd_valid_;
    return live_[ring(rd_page_, page_offset)];
  }
  /// Producer side: only the first `bytes` of the page `page_offset` past
  /// the reserve point are meaningful (pack_tile of a narrow register).
  void set_live_bytes(std::uint32_t page_offset, std::uint32_t bytes) {
    live_[ring(wr_page_, page_offset)] = bytes;
  }

  /// Producer-side counterpart (the paper's API recommendation: "enabling
  /// CBs to alias local memory"): alias the producer page at arbitrary local
  /// memory so pack_tile lands directly in, e.g., an SRAM-resident domain
  /// slab. Cleared by the next push_back.
  void set_write_ptr(std::byte* p) {
    TTSIM_CHECK(p != nullptr);
    override_wr_ptr_ = p;
  }
  bool has_write_ptr_override() const { return override_wr_ptr_ != nullptr; }

 private:
  /// The ring index `offset` pages past `page`. Offsets are almost always
  /// below num_pages_, so the division is kept off the common path.
  std::uint32_t ring(std::uint32_t page, std::uint32_t offset) const {
    const std::uint32_t p = page + offset;
    return p < num_pages_ ? p : p % num_pages_;
  }

  void check_pages(std::uint32_t pages) const {
    TTSIM_CHECK(pages > 0);
    TTSIM_CHECK_MSG(pages <= num_pages_,
                    "CB operation on more pages than the CB holds");
  }

  std::byte* storage_;
  std::uint32_t page_size_;
  std::uint32_t num_pages_;
  std::uint32_t wr_page_ = 0;
  std::uint32_t rd_page_ = 0;
  std::uint32_t committed_ = 0;
  std::uint32_t pending_ = 0;  // reserved-not-yet-pushed (kept 0: tt-metal
                               // tracks reservation implicitly via wr ptr)
  std::vector<std::uint32_t> live_;  // per page: live_bytes(), 0 = whole page
  const std::byte* override_rd_ptr_ = nullptr;
  std::uint32_t override_rd_valid_ = 0;
  std::byte* override_wr_ptr_ = nullptr;
  WaitQueue space_;
  WaitQueue data_;
  TraceSink* trace_ = nullptr;
  int core_ = -1;   // trace labels only
  int cb_id_ = -1;
  bool kernel_local_ = false;
};

}  // namespace ttsim::sim

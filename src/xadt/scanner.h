#ifndef XORATOR_XADT_SCANNER_H_
#define XORATOR_XADT_SCANNER_H_

#include <string>
#include <vector>
#include <string_view>

#include "common/lifetime.h"
#include "common/result.h"

namespace xorator::xadt {

/// A pull-based event scanner over an encoded XADT value (either
/// representation), used by the XADT methods to evaluate path/keyword/order
/// predicates without materializing a DOM — the streaming equivalent of the
/// paper's C-string implementation.
///
/// Events carry byte offsets into the encoded value so that matched
/// fragments can be emitted by copying the original byte range:
///   * a kStart event's `offset` is the first byte of the element
///     (the '<' in the raw form, the start opcode in the compressed form);
///   * a kEnd event's `end_offset` is one past the last byte of the element.
/// Self-closing raw elements produce a kStart immediately followed by a
/// kEnd.
///
/// The scanner is a gsl::Pointer into the encoded bytes (DESIGN.md
/// section 14): it never copies them, so Clang builds reject constructing
/// one over a temporary owner in a single statement.
class XO_GSL_POINTER(char) FragmentScanner {
 public:
  enum class EventKind { kStart, kEnd, kText, kEof };

  struct Event {
    EventKind kind = EventKind::kEof;
    /// Element name (valid until the next call) for kStart/kEnd.
    std::string_view name;
    /// Decoded character data for kText.
    std::string_view text;
    /// Byte offset of the event start (kStart) in the encoded value.
    size_t offset = 0;
    /// One past the last byte (kEnd).
    size_t end_offset = 0;
  };

  /// `bytes` must outlive the scanner (enforced on Clang builds via the
  /// lifetime-bound parameter). Accepts both representations, raw ('R')
  /// and compressed ('C'); any other first byte is a kParseError.
  [[nodiscard]] static Result<FragmentScanner> Create(
      std::string_view bytes XO_LIFETIME_BOUND);

  /// The returned Event's views point into the scanner (and its bytes);
  /// they are valid only until the next call.
  [[nodiscard]] Result<Event> Next() XO_LIFETIME_BOUND;

  bool compressed() const { return compressed_; }

  /// Offset where the token/markup stream begins (after the marker byte
  /// and, for the compressed form, the dictionary).
  size_t content_begin() const { return content_begin_; }

  /// The dictionary prefix of a compressed value ('C' + dictionary), usable
  /// verbatim as the header of a sliced output value.
  std::string_view header() const XO_LIFETIME_BOUND {
    return bytes_.substr(0, content_begin_);
  }

 private:
  explicit FragmentScanner(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] Result<Event> NextRaw();
  [[nodiscard]] Result<Event> NextCompressed();
  [[nodiscard]] Status ParseDictionary(size_t dict_begin);

  std::string_view bytes_;
  bool compressed_ = false;
  size_t content_begin_ = 1;
  size_t pos_ = 0;
  // Stack of open element names, as views into bytes_.
  std::vector<std::string_view> open_;
  // Compressed form: the value's tag dictionary, parsed once per scanner
  // as views into bytes_ (entry i names tag id i). No string is built per
  // entry.
  std::vector<std::string_view> dict_;
  // Scratch for decoded entity text and synthesized end events.
  std::string text_scratch_;
  bool pending_self_close_ = false;
  size_t pending_end_offset_ = 0;
};

}  // namespace xorator::xadt

#endif  // XORATOR_XADT_SCANNER_H_

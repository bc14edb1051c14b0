#ifndef XORATOR_XADT_XADT_H_
#define XORATOR_XADT_XADT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/dom.h"

namespace xorator::xadt {

/// The XADT value encoding (Section 3.4.1 of the paper).
///
/// An XADT value stores a *fragment*: an ordered forest of XML subtrees
/// (e.g. every LINE child of one SPEECH). Two on-disk representations exist:
///
///   * raw ('R'): the tagged XML text of the fragments, concatenated;
///   * compressed ('C'): an XMill-inspired form in which element/attribute
///     names are replaced by integer codes, with a per-value dictionary
///     mapping codes back to names.
///
/// The first byte of the encoded value selects the representation. All
/// methods accept either representation and produce their output in the same
/// representation as their input.

/// True if `bytes` holds the compressed representation.
bool IsCompressed(std::string_view bytes);

/// Encodes `fragments` (subtree roots; borrowed) in the raw representation.
std::string EncodeRaw(const std::vector<const xml::Node*>& fragments);

/// Encodes `fragments` in the compressed (tag-dictionary) representation.
std::string EncodeCompressed(const std::vector<const xml::Node*>& fragments);

/// Encodes with the representation chosen by `compressed`.
std::string Encode(const std::vector<const xml::Node*>& fragments,
                   bool compressed);

/// Decodes an XADT value into a DOM forest under a synthetic `#fragment`
/// root node.
[[nodiscard]] Result<std::unique_ptr<xml::Node>> Decode(std::string_view bytes);

/// Renders an XADT value back to XML text (no enclosing root).
[[nodiscard]] Result<std::string> ToXmlString(std::string_view bytes);

/// Concatenated text content of all fragments.
[[nodiscard]] Result<std::string> TextContent(std::string_view bytes);

/// The paper's 20% rule (Section 4.1): compression pays only when it saves
/// at least this share of the raw size.
inline constexpr double kMinCompressionSaving = 0.2;

/// Decides between the two representations from trial-encoded sample sizes:
/// true if `raw_bytes` is non-zero and `compressed_bytes` saves at least
/// kMinCompressionSaving of it.
bool CompressionPays(uint64_t raw_bytes, uint64_t compressed_bytes);

// ---------------------------------------------------------------------------
// XADT methods (Section 3.4.2). These mirror the UDFs the paper registered
// with DB2 and are registered as UDFs with the ordb engine by
// RegisterXadtFunctions() in xadt/functions.h.
// ---------------------------------------------------------------------------

/// Returns all `root_elm` elements (searched descendant-or-self across the
/// fragments) that contain a `search_elm` descendant within `level` levels
/// (level <= 0: any depth) whose text content contains `search_key`.
/// Per the paper: an empty `search_key` only requires `search_elm` to exist;
/// an empty `search_elm` returns all `root_elm` elements.
[[nodiscard]] Result<std::string> GetElm(std::string_view in, std::string_view root_elm,
                           std::string_view search_elm,
                           std::string_view search_key, int level = 0);

/// Returns 1 if some `search_elm` element's text contains `search_key`
/// (empty `search_elm`: any element; empty `search_key`: existence test).
/// Both arguments empty is an error. The scan returns at the first match,
/// so bytes after it are never read: a value damaged only there still
/// answers 1.
[[nodiscard]] Result<int64_t> FindKeyInElm(std::string_view in, std::string_view search_elm,
                             std::string_view search_key);

/// Returns all `child_elm` elements that are direct children of
/// `parent_elm` elements with 1-based same-tag sibling position in
/// [start_pos, end_pos]. An empty `parent_elm` treats `child_elm` as the
/// fragment roots. `child_elm` must not be empty.
///
/// With an empty `parent_elm` the scan returns as soon as the `end_pos`-th
/// fragment-root `child_elm` has closed, since no later element can match:
/// the paper's order access (QS6's second LINE) costs O(position), not
/// O(value), and, as with findKeyInElm's early return, bytes after that
/// point are never read. A value damaged only there still yields the
/// requested elements; stored bytes are guarded by the page checksums.
[[nodiscard]] Result<std::string> GetElmIndex(std::string_view in,
                                std::string_view parent_elm,
                                std::string_view child_elm, int start_pos,
                                int end_pos);

/// One row of Unnest: a matched element as a standalone single-element
/// XADT value, and its concatenated text content.
struct UnnestedFragment {
  /// Equal to TextContent(value).
  std::string text;
  /// The element's bytes behind the input's representation header.
  std::string value;
};

/// Splits the value into one single-element XADT per `tag` element
/// (descendant-or-self; empty `tag`: every top-level fragment), each with
/// its text. This backs the table UDF `unnest` of Section 3.5.
///
/// One scan of `in` yields both halves: open matches share one text
/// buffer and each remembers where its own text starts, so a match nested
/// inside a same-tag match gets the suffix it owns. Fragments come out in
/// end-tag order (an inner match before the match enclosing it). Every
/// materialized byte, value and text alike, is charged to the bound
/// statement guard; a scan error fails the whole call.
[[nodiscard]] Result<std::vector<UnnestedFragment>> Unnest(
    std::string_view in, std::string_view tag);

}  // namespace xorator::xadt

#endif  // XORATOR_XADT_XADT_H_

#include "xadt/xadt.h"

#include "xadt/scanner.h"

#include <functional>
#include <map>

#include "common/str_util.h"
#include "common/varint.h"
#include "ordb/query_guard.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xorator::xadt {

namespace {

// Charges one XADT method call's result expansion against the statement's
// thread-locally bound guard (ordb::CurrentGuard(), null in direct library
// use). The charge is released when the call returns — the caller accounts
// the value it receives — so this caps *peak* decoded-fragment expansion
// during evaluation (DESIGN.md §12).
class ExpansionBudget {
 public:
  ExpansionBudget() : arena_(ordb::CurrentGuard()) {}
  [[nodiscard]] Status Charge(size_t bytes) { return arena_.Charge(bytes); }

 private:
  ordb::TrackedArena arena_;
};

// Sliding-window search for `key` (non-empty) over character data that
// arrives split across text events. `window` holds the trailing
// key.size()-1 bytes seen before `text`, so a key straddling the boundary
// lies in window + the first key.size()-1 bytes of `text`; a key inside
// `text` is `in_text`, tested once per event for every open frame. The
// window never holds more than 2*(key.size()-1) bytes.
bool SlideWindow(std::string* window, std::string_view text,
                 std::string_view key, bool in_text) {
  if (in_text) return true;
  const size_t keep = key.size() - 1;
  window->append(text.substr(0, keep));
  if (Contains(*window, key)) return true;
  if (text.size() >= keep) {
    window->assign(text.substr(text.size() - keep));
  } else if (window->size() > keep) {
    window->erase(0, window->size() - keep);
  }
  return false;
}

// Charges the sliding windows of getElm/findKeyInElm: each open searchElm
// frame holds at most 2*key_size bytes (SlideWindow), so the windows are
// charged that much per frame at the deepest nesting seen, once each time
// `open_frames` reaches a new peak.
Status ChargeWindows(ExpansionBudget* budget, size_t open_frames,
                     size_t key_size, size_t* peak_frames) {
  if (open_frames <= *peak_frames) return Status::OK();
  *peak_frames = open_frames;
  return budget->Charge(2 * key_size);
}

constexpr char kRawMarker = 'R';
constexpr char kCompressedMarker = 'C';

// Token opcodes of the compressed representation.
constexpr uint8_t kTokStart = 0x01;
constexpr uint8_t kTokEnd = 0x02;
constexpr uint8_t kTokText = 0x03;

void CollectNames(const xml::Node& node,
                  std::map<std::string, uint64_t>* dict,
                  std::vector<std::string>* names) {
  auto intern = [&](const std::string& name) {
    if (dict->emplace(name, names->size()).second) names->push_back(name);
  };
  if (node.is_element()) {
    intern(node.name());
    for (const xml::Attribute& a : node.attributes()) intern(a.name);
    for (const auto& c : node.children()) CollectNames(*c, dict, names);
  }
}

void EncodeNode(const xml::Node& node,
                const std::map<std::string, uint64_t>& dict,
                std::string* out) {
  if (node.is_text()) {
    out->push_back(static_cast<char>(kTokText));
    PutVarint(out, node.text().size());
    out->append(node.text());
    return;
  }
  out->push_back(static_cast<char>(kTokStart));
  PutVarint(out, dict.at(node.name()));
  PutVarint(out, node.attributes().size());
  for (const xml::Attribute& a : node.attributes()) {
    PutVarint(out, dict.at(a.name));
    PutVarint(out, a.value.size());
    out->append(a.value);
  }
  for (const auto& c : node.children()) EncodeNode(*c, dict, out);
  out->push_back(static_cast<char>(kTokEnd));
}

Result<std::unique_ptr<xml::Node>> DecodeCompressed(std::string_view bytes) {
  size_t pos = 1;
  XO_ASSIGN_OR_RETURN(uint64_t name_count, GetVarint(bytes, &pos));
  if (name_count > bytes.size() - pos) {
    return Status::ParseError("XADT dictionary count exceeds value size");
  }
  std::vector<std::string> names;
  names.reserve(name_count);
  for (uint64_t i = 0; i < name_count; ++i) {
    XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes, &pos));
    // Subtraction form: pos <= size() after GetVarint, so this cannot
    // wrap the way `pos + len` could.
    if (len > bytes.size() - pos) {
      return Status::ParseError("truncated XADT dictionary");
    }
    names.emplace_back(bytes.substr(pos, len));
    pos += len;
  }
  auto root = xml::Node::Element("#fragment");
  std::vector<xml::Node*> stack = {root.get()};
  // This loop bypasses FragmentScanner, so it polls the statement guard
  // and charges DOM expansion itself: a small compressed value can decode
  // to a much larger tree, and hostile token streams must stay both
  // cancellable and budget-bounded.
  ordb::QueryGuard* guard = ordb::CurrentGuard();
  ExpansionBudget budget;
  while (pos < bytes.size()) {
    if (guard != nullptr) {
      RETURN_IF_ERROR(guard->CheckPoint());
    }
    uint8_t op = static_cast<uint8_t>(bytes[pos++]);
    switch (op) {
      case kTokStart: {
        XO_ASSIGN_OR_RETURN(uint64_t tag, GetVarint(bytes, &pos));
        if (tag >= names.size()) {
          return Status::ParseError("XADT tag id out of range");
        }
        auto elem = xml::Node::Element(names[tag]);
        XO_ASSIGN_OR_RETURN(uint64_t nattrs, GetVarint(bytes, &pos));
        for (uint64_t i = 0; i < nattrs; ++i) {
          XO_ASSIGN_OR_RETURN(uint64_t name_id, GetVarint(bytes, &pos));
          XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes, &pos));
          if (name_id >= names.size() || len > bytes.size() - pos) {
            return Status::ParseError("bad XADT attribute token");
          }
          RETURN_IF_ERROR(budget.Charge(names[name_id].size() + len));
          elem->AddAttribute(names[name_id],
                             std::string(bytes.substr(pos, len)));
          pos += len;
        }
        RETURN_IF_ERROR(budget.Charge(sizeof(xml::Node) + names[tag].size()));
        xml::Node* raw = stack.back()->AddChild(std::move(elem));
        stack.push_back(raw);
        break;
      }
      case kTokEnd:
        if (stack.size() <= 1) {
          return Status::ParseError("unbalanced XADT end token");
        }
        stack.pop_back();
        break;
      case kTokText: {
        XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes, &pos));
        if (len > bytes.size() - pos) {
          return Status::ParseError("truncated XADT text token");
        }
        RETURN_IF_ERROR(budget.Charge(sizeof(xml::Node) + len));
        stack.back()->AddChild(
            xml::Node::Text(std::string(bytes.substr(pos, len))));
        pos += len;
        break;
      }
      default:
        return Status::ParseError("unknown XADT token opcode");
    }
  }
  if (stack.size() != 1) {
    return Status::ParseError("unbalanced XADT start token");
  }
  return root;
}

}  // namespace

bool IsCompressed(std::string_view bytes) {
  return !bytes.empty() && bytes[0] == kCompressedMarker;
}

std::string EncodeRaw(const std::vector<const xml::Node*>& fragments) {
  std::string out(1, kRawMarker);
  for (const xml::Node* f : fragments) xml::SerializeTo(*f, &out);
  return out;
}

std::string EncodeCompressed(const std::vector<const xml::Node*>& fragments) {
  std::map<std::string, uint64_t> dict;
  std::vector<std::string> names;
  for (const xml::Node* f : fragments) CollectNames(*f, &dict, &names);
  std::string out(1, kCompressedMarker);
  PutVarint(&out, names.size());
  for (const std::string& n : names) {
    PutVarint(&out, n.size());
    out.append(n);
  }
  for (const xml::Node* f : fragments) EncodeNode(*f, dict, &out);
  return out;
}

std::string Encode(const std::vector<const xml::Node*>& fragments,
                   bool compressed) {
  return compressed ? EncodeCompressed(fragments) : EncodeRaw(fragments);
}

Result<std::unique_ptr<xml::Node>> Decode(std::string_view bytes) {
  if (bytes.empty()) return xml::Node::Element("#fragment");
  if (bytes[0] == kRawMarker) {
    return xml::ParseFragment(bytes.substr(1));
  }
  if (bytes[0] == kCompressedMarker) {
    return DecodeCompressed(bytes);
  }
  return Status::ParseError("unknown XADT representation marker");
}

Result<std::string> ToXmlString(std::string_view bytes) {
  if (bytes.empty()) return std::string();
  if (bytes[0] == kRawMarker) return std::string(bytes.substr(1));
  XO_ASSIGN_OR_RETURN(auto root, Decode(bytes));
  std::string out;
  xml::SerializeTo(*root, &out);
  return out;
}

Result<std::string> TextContent(std::string_view bytes) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(bytes));
  ExpansionBudget budget;
  std::string out;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    if (event.kind == FragmentScanner::EventKind::kEof) return out;
    if (event.kind == FragmentScanner::EventKind::kText) {
      RETURN_IF_ERROR(budget.Charge(event.text.size()));
      out.append(event.text);
    }
  }
}

bool CompressionPays(uint64_t raw_bytes, uint64_t compressed_bytes) {
  return raw_bytes > 0 &&
         static_cast<double>(compressed_bytes) <=
             (1.0 - kMinCompressionSaving) * static_cast<double>(raw_bytes);
}

Result<std::string> GetElm(std::string_view in, std::string_view root_elm,
                           std::string_view search_elm,
                           std::string_view search_key, int level) {
  if (root_elm.empty()) {
    return Status::InvalidArgument("getElm: rootElm must not be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string out(scanner.header());
  if (out.empty()) out.push_back(kRawMarker);

  struct Candidate {
    size_t start_offset;
    size_t depth;
    bool matched;
  };
  struct SearchFrame {
    size_t depth;
    bool matched;
    // Sliding window over the subtree's character data: only the last
    // search_key.size()-1 bytes are retained, enough to catch a key that
    // straddles two text events, so the frame never copies the whole
    // subtree's text (DESIGN.md section 14).
    std::string window;
  };
  std::vector<Candidate> candidates;  // open rootElm elements (stack)
  std::vector<SearchFrame> searches;  // open searchElm elements (stack)
  size_t peak_searches = 0;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        if (depth != 0) {
          return Status::ParseError("unbalanced XADT fragment");
        }
        return out;
      case FragmentScanner::EventKind::kStart:
        if (event.name == root_elm) {
          candidates.push_back({event.offset, depth, search_elm.empty()});
        }
        if (!search_elm.empty() && event.name == search_elm) {
          searches.push_back({depth, search_key.empty(), {}});
          RETURN_IF_ERROR(ChargeWindows(&budget, searches.size(),
                                        search_key.size(), &peak_searches));
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText: {
        bool in_text = false;
        bool tested = false;
        for (SearchFrame& f : searches) {
          if (f.matched) continue;
          if (!tested) {
            in_text = Contains(event.text, search_key);
            tested = true;
          }
          if (SlideWindow(&f.window, event.text, search_key, in_text)) {
            f.matched = true;
            f.window.clear();
          }
        }
        break;
      }
      case FragmentScanner::EventKind::kEnd: {
        --depth;
        if (!searches.empty() && searches.back().depth == depth) {
          // A searchElm subtree closed: on a key match, mark every open
          // candidate within `level` levels above it.
          SearchFrame frame = std::move(searches.back());
          searches.pop_back();
          if (frame.matched) {
            for (Candidate& c : candidates) {
              if (level <= 0 ||
                  depth - c.depth <= static_cast<size_t>(level)) {
                c.matched = true;
              }
            }
          }
        }
        if (!candidates.empty() && candidates.back().depth == depth) {
          Candidate c = candidates.back();
          candidates.pop_back();
          if (c.matched) {
            RETURN_IF_ERROR(budget.Charge(event.end_offset - c.start_offset));
            out.append(in.substr(c.start_offset,
                                 event.end_offset - c.start_offset));
          }
        }
        break;
      }
    }
  }
}

Result<int64_t> FindKeyInElm(std::string_view in, std::string_view search_elm,
                             std::string_view search_key) {
  if (search_elm.empty() && search_key.empty()) {
    return Status::InvalidArgument(
        "findKeyInElm: searchElm and searchKey cannot both be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  if (search_elm.empty()) {
    // Key against the content of any element: a sliding window over the
    // concatenated character data.
    std::string window;
    while (true) {
      XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
      if (event.kind == FragmentScanner::EventKind::kEof) return 0;
      if (event.kind != FragmentScanner::EventKind::kText) continue;
      if (SlideWindow(&window, event.text, search_key,
                      Contains(event.text, search_key))) {
        return 1;
      }
    }
  }
  struct SearchFrame {
    size_t depth;
    // Sliding window, as in GetElm: keep only the trailing
    // search_key.size()-1 bytes so cross-event matches still land without
    // buffering the subtree's full character data.
    std::string window;
  };
  ExpansionBudget budget;
  std::vector<SearchFrame> searches;
  size_t peak_searches = 0;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return 0;
      case FragmentScanner::EventKind::kStart:
        if (event.name == search_elm) {
          if (search_key.empty()) return 1;
          searches.push_back({depth, {}});
          RETURN_IF_ERROR(ChargeWindows(&budget, searches.size(),
                                        search_key.size(), &peak_searches));
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText:
        if (searches.empty()) break;
        // Any open frame contains this text, so a key inside it is a match.
        if (Contains(event.text, search_key)) return 1;
        for (SearchFrame& f : searches) {
          // Early exit as soon as any tracked element matches.
          if (SlideWindow(&f.window, event.text, search_key, false)) return 1;
        }
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        if (!searches.empty() && searches.back().depth == depth) {
          searches.pop_back();
        }
        break;
    }
  }
}

Result<std::string> GetElmIndex(std::string_view in,
                                std::string_view parent_elm,
                                std::string_view child_elm, int start_pos,
                                int end_pos) {
  if (child_elm.empty()) {
    return Status::InvalidArgument("getElmIndex: childElm must not be empty");
  }
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string out(scanner.header());
  if (out.empty()) out.push_back(kRawMarker);

  struct Frame {
    std::string_view name;
    int child_count = 0;  // direct children named child_elm so far
  };
  struct Capture {
    size_t start_offset;
    size_t depth;
  };
  std::vector<Frame> frames = {{std::string_view("#root"), 0}};
  std::vector<Capture> captures;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return out;
      case FragmentScanner::EventKind::kStart: {
        Frame& parent = frames.back();
        if (event.name == child_elm) {
          bool parent_ok = parent_elm.empty()
                               ? frames.size() == 1
                               : parent.name == parent_elm;
          if (parent_elm.empty() || parent.name == parent_elm) {
            ++parent.child_count;
          }
          if (parent_ok && parent.child_count >= start_pos &&
              parent.child_count <= end_pos) {
            captures.push_back({event.offset, depth});
          }
        }
        frames.push_back({event.name, 0});
        ++depth;
        break;
      }
      case FragmentScanner::EventKind::kText:
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        frames.pop_back();
        if (!captures.empty() && captures.back().depth == depth) {
          Capture c = captures.back();
          captures.pop_back();
          RETURN_IF_ERROR(budget.Charge(event.end_offset - c.start_offset));
          out.append(
              in.substr(c.start_offset, event.end_offset - c.start_offset));
        }
        if (parent_elm.empty() && depth == 0 &&
            frames.back().child_count >= end_pos) {
          // Order access on the fragment roots: the end_pos-th root
          // child_elm has closed, so no later element can match.
          return out;
        }
        break;
    }
  }
}

Result<std::vector<UnnestedFragment>> Unnest(std::string_view in,
                                             std::string_view tag) {
  XO_ASSIGN_OR_RETURN(FragmentScanner scanner, FragmentScanner::Create(in));
  ExpansionBudget budget;
  std::string_view header = scanner.header();
  std::string prefix =
      header.empty() ? std::string(1, kRawMarker) : std::string(header);
  struct Capture {
    size_t start_offset;
    size_t depth;
    size_t text_begin;  // where this match's text starts in `text`
  };
  std::vector<Capture> captures;
  // Character data seen since the outermost open match started.
  std::string text;
  std::vector<UnnestedFragment> out;
  size_t depth = 0;
  while (true) {
    XO_ASSIGN_OR_RETURN(auto event, scanner.Next());
    switch (event.kind) {
      case FragmentScanner::EventKind::kEof:
        return out;
      case FragmentScanner::EventKind::kStart:
        if (tag.empty() ? depth == 0 : event.name == tag) {
          captures.push_back({event.offset, depth, text.size()});
        }
        ++depth;
        break;
      case FragmentScanner::EventKind::kText:
        if (!captures.empty()) text.append(event.text);
        break;
      case FragmentScanner::EventKind::kEnd:
        --depth;
        if (!captures.empty() && captures.back().depth == depth) {
          Capture c = captures.back();
          captures.pop_back();
          const size_t len = event.end_offset - c.start_offset;
          const size_t text_len = text.size() - c.text_begin;
          RETURN_IF_ERROR(budget.Charge(prefix.size() + len + text_len));
          UnnestedFragment frag;
          if (captures.empty()) {
            // The outermost match owns the whole buffer (text_begin is 0).
            frag.text = std::move(text);
            text.clear();
          } else {
            frag.text = text.substr(c.text_begin);
          }
          frag.value.reserve(prefix.size() + len);
          frag.value = prefix;
          frag.value.append(in.substr(c.start_offset, len));
          out.push_back(std::move(frag));
        }
        break;
    }
  }
}

}  // namespace xorator::xadt

#include "xadt/scanner.h"

#include <cctype>

#include "common/varint.h"
#include "ordb/query_guard.h"
#include "xml/parser.h"

namespace xorator::xadt {

namespace {
constexpr char kRawMarker = 'R';
constexpr char kCompressedMarker = 'C';
constexpr uint8_t kTokStart = 0x01;
constexpr uint8_t kTokEnd = 0x02;
constexpr uint8_t kTokText = 0x03;
}  // namespace

Result<FragmentScanner> FragmentScanner::Create(std::string_view bytes) {
  FragmentScanner scanner(bytes);
  if (bytes.empty()) {
    scanner.pos_ = 0;
    scanner.content_begin_ = 0;
    return scanner;
  }
  if (bytes[0] == kRawMarker) {
    scanner.compressed_ = false;
    scanner.content_begin_ = 1;
    scanner.pos_ = 1;
    return scanner;
  }
  if (bytes[0] == kCompressedMarker) {
    scanner.compressed_ = true;
    XO_RETURN_NOT_OK(scanner.ParseDictionary(1));
    return scanner;
  }
  return Status::ParseError("unknown XADT representation marker");
}

Status FragmentScanner::ParseDictionary(size_t dict_begin) {
  size_t pos = dict_begin;
  XO_ASSIGN_OR_RETURN(uint64_t count, GetVarint(bytes_, &pos));
  if (count > bytes_.size() - pos) {
    return Status::ParseError("XADT dictionary count exceeds value size");
  }
  dict_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes_, &pos));
    // Subtraction form: pos <= size() after GetVarint, so this cannot
    // wrap the way `pos + len` could.
    if (len > bytes_.size() - pos) {
      return Status::ParseError("truncated XADT dictionary");
    }
    dict_.push_back(bytes_.substr(pos, len));
    pos += len;
  }
  content_begin_ = pos;
  pos_ = pos;
  return Status::OK();
}

Result<FragmentScanner::Event> FragmentScanner::Next() {
  // Per-fragment-step guard poll (DESIGN.md §12): every event produced
  // while a statement guard is bound thread-locally counts as a
  // cancellation point, so long XADT scans inside ctx-less UDFs stay
  // responsive to deadlines and Cancel().
  if (ordb::QueryGuard* guard = ordb::CurrentGuard(); guard != nullptr) {
    RETURN_IF_ERROR(guard->CheckPoint());
  }
  if (pending_self_close_) {
    pending_self_close_ = false;
    Event event;
    event.kind = EventKind::kEnd;
    event.name = open_.back();
    event.end_offset = pending_end_offset_;
    open_.pop_back();
    return event;
  }
  if (pos_ >= bytes_.size()) {
    if (!open_.empty()) {
      return Status::ParseError("unbalanced XADT fragment");
    }
    return Event{};
  }
  return compressed_ ? NextCompressed() : NextRaw();
}

Result<FragmentScanner::Event> FragmentScanner::NextRaw() {
  Event event;
  if (bytes_[pos_] != '<') {
    // Character data run.
    size_t start = pos_;
    size_t lt = bytes_.find('<', pos_);
    if (lt == std::string_view::npos) lt = bytes_.size();
    std::string_view raw = bytes_.substr(start, lt - start);
    pos_ = lt;
    event.kind = EventKind::kText;
    event.offset = start;
    event.end_offset = lt;
    if (raw.find('&') == std::string_view::npos) {
      event.text = raw;
    } else {
      XO_ASSIGN_OR_RETURN(text_scratch_, xml::DecodeEntities(raw));
      event.text = text_scratch_;
    }
    return event;
  }
  // Markup. Comments are skipped iteratively: a value packed with
  // back-to-back comments must not recurse once per comment.
  while (bytes_.compare(pos_, 4, "<!--") == 0) {
    size_t end = bytes_.find("-->", pos_);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated comment in XADT value");
    }
    pos_ = end + 3;
    if (pos_ >= bytes_.size() || bytes_[pos_] != '<') return Next();
  }
  size_t start = pos_;
  if (bytes_.compare(pos_, 9, "<![CDATA[") == 0) {
    size_t end = bytes_.find("]]>", pos_);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated CDATA in XADT value");
    }
    event.kind = EventKind::kText;
    event.text = bytes_.substr(pos_ + 9, end - pos_ - 9);
    event.offset = start;
    event.end_offset = end + 3;
    pos_ = end + 3;
    return event;
  }
  if (pos_ + 1 < bytes_.size() && bytes_[pos_ + 1] == '/') {
    // End tag.
    size_t name_start = pos_ + 2;
    size_t gt = bytes_.find('>', name_start);
    if (gt == std::string_view::npos) {
      return Status::ParseError("unterminated end tag in XADT value");
    }
    size_t name_end = name_start;
    while (name_end < gt &&
           !std::isspace(static_cast<unsigned char>(bytes_[name_end]))) {
      ++name_end;
    }
    std::string_view name = bytes_.substr(name_start, name_end - name_start);
    if (open_.empty() || open_.back() != name) {
      return Status::ParseError("mismatched end tag in XADT value");
    }
    open_.pop_back();
    pos_ = gt + 1;
    event.kind = EventKind::kEnd;
    event.name = name;
    event.offset = start;
    event.end_offset = pos_;
    return event;
  }
  // Start tag: scan the name, then skip attributes respecting quotes.
  size_t name_start = pos_ + 1;
  size_t p = name_start;
  while (p < bytes_.size() && bytes_[p] != '>' && bytes_[p] != '/' &&
         !std::isspace(static_cast<unsigned char>(bytes_[p]))) {
    ++p;
  }
  std::string_view name = bytes_.substr(name_start, p - name_start);
  if (name.empty()) {
    return Status::ParseError("bad start tag in XADT value");
  }
  bool self_closing = false;
  while (p < bytes_.size()) {
    char c = bytes_[p];
    if (c == '"' || c == '\'') {
      size_t close = bytes_.find(c, p + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated attribute in XADT value");
      }
      p = close + 1;
      continue;
    }
    if (c == '>') {
      break;
    }
    if (c == '/' && p + 1 < bytes_.size() && bytes_[p + 1] == '>') {
      self_closing = true;
      ++p;
      break;
    }
    ++p;
  }
  if (p >= bytes_.size()) {
    return Status::ParseError("unterminated start tag in XADT value");
  }
  pos_ = p + 1;
  open_.push_back(name);
  event.kind = EventKind::kStart;
  event.name = name;
  event.offset = start;
  event.end_offset = pos_;
  if (self_closing) {
    pending_self_close_ = true;
    pending_end_offset_ = pos_;
  }
  return event;
}

Result<FragmentScanner::Event> FragmentScanner::NextCompressed() {
  Event event;
  size_t start = pos_;
  uint8_t op = static_cast<uint8_t>(bytes_[pos_++]);
  switch (op) {
    case kTokStart: {
      XO_ASSIGN_OR_RETURN(uint64_t tag, GetVarint(bytes_, &pos_));
      if (tag >= dict_.size()) {
        return Status::ParseError("XADT tag id out of range");
      }
      XO_ASSIGN_OR_RETURN(uint64_t nattrs, GetVarint(bytes_, &pos_));
      for (uint64_t i = 0; i < nattrs; ++i) {
        XO_ASSIGN_OR_RETURN(uint64_t name_id, GetVarint(bytes_, &pos_));
        XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes_, &pos_));
        if (name_id >= dict_.size() || len > bytes_.size() - pos_) {
          return Status::ParseError("bad XADT attribute token");
        }
        pos_ += len;
      }
      open_.push_back(dict_[tag]);
      event.kind = EventKind::kStart;
      event.name = dict_[tag];
      event.offset = start;
      event.end_offset = pos_;
      return event;
    }
    case kTokEnd: {
      if (open_.empty()) {
        return Status::ParseError("unbalanced XADT end token");
      }
      event.kind = EventKind::kEnd;
      event.name = open_.back();
      open_.pop_back();
      event.offset = start;
      event.end_offset = pos_;
      return event;
    }
    case kTokText: {
      XO_ASSIGN_OR_RETURN(uint64_t len, GetVarint(bytes_, &pos_));
      if (len > bytes_.size() - pos_) {
        return Status::ParseError("truncated XADT text token");
      }
      event.kind = EventKind::kText;
      event.text = bytes_.substr(pos_, len);
      event.offset = start;
      pos_ += len;
      event.end_offset = pos_;
      return event;
    }
    default:
      return Status::ParseError("unknown XADT token opcode");
  }
}

}  // namespace xorator::xadt

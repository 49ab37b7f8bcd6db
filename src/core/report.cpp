#include "core/report.hpp"

#include <cstdio>
#include <iostream>

#include "common/check.hpp"

namespace adcc::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  ADCC_CHECK(cells.size() == headers_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::fputs(render_plain().c_str(), stdout);
  std::fflush(stdout);
}

std::string Table::render_plain() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] + 2 - row[c].size(), ' ');
    }
    out += '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::optional<TableFormat> parse_table_format(std::string_view name) {
  if (name.empty() || name == "table" || name == "plain") return TableFormat::kPlain;
  if (name == "csv") return TableFormat::kCsv;
  if (name == "json") return TableFormat::kJson;
  return std::nullopt;
}

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void Table::print(TableFormat format) const {
  std::fputs(render(format).c_str(), stdout);
  std::fflush(stdout);
}

std::string Table::render(TableFormat format) const {
  switch (format) {
    case TableFormat::kPlain: return render_plain();
    case TableFormat::kCsv: return render_csv();
    case TableFormat::kJson: return render_json();
  }
  ADCC_UNREACHABLE("unknown table format");
}

std::string Table::render_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out += ',';
      out += csv_escape(row[c]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string Table::render_json() const {
  std::string out = "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r == 0 ? "\n  {" : ",\n  {";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c != 0) out += ", ";
      out += '"';
      out += json_escape(headers_[c]);
      out += "\": \"";
      out += json_escape(rows_[r][c]);
      out += '"';
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void print_banner(const std::string& figure, const std::string& description) {
  std::printf("\n=== %s — %s ===\n", figure.c_str(), description.c_str());
  std::fflush(stdout);
}

}  // namespace adcc::core

#include "support/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "support/strings.hpp"

namespace dsspy::support {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
    alignment_.assign(headers_.size(), Align::Right);
    if (!alignment_.empty()) alignment_.front() = Align::Left;
}

void Table::set_alignment(std::vector<Align> alignment) {
    alignment_ = std::move(alignment);
    alignment_.resize(headers_.size(), Align::Right);
}

void Table::add_row(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    rows_.push_back(Row{std::move(cells), false});
}

void Table::add_separator() { rows_.push_back(Row{{}, true}); }

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        if (row.separator) continue;
        for (std::size_t c = 0; c < row.cells.size(); ++c)
            widths[c] = std::max(widths[c], row.cells[c].size());
    }

    auto print_cells = [&](const std::vector<std::string>& cells) {
        os << "| ";
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string& cell = c < cells.size() ? cells[c] : headers_[c];
            const auto pad = widths[c] - cell.size();
            if (alignment_[c] == Align::Right) os << std::string(pad, ' ');
            os << cell;
            if (alignment_[c] == Align::Left) os << std::string(pad, ' ');
            os << (c + 1 == headers_.size() ? " |" : " | ");
        }
        os << '\n';
    };

    auto print_rule = [&] {
        os << '+';
        for (std::size_t c = 0; c < headers_.size(); ++c)
            os << std::string(widths[c] + 2, '-') << '+';
        os << '\n';
    };

    print_rule();
    print_cells(headers_);
    print_rule();
    for (const auto& row : rows_) {
        if (row.separator) {
            print_rule();
        } else {
            print_cells(row.cells);
        }
    }
    print_rule();
}

void Table::print_csv(std::ostream& os) const {
    for (std::size_t c = 0; c < headers_.size(); ++c)
        os << csv_escape(headers_[c])
           << (c + 1 == headers_.size() ? "\n" : ",");
    for (const auto& row : rows_) {
        if (row.separator) continue;
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            os << (c < row.cells.size() ? csv_escape(row.cells[c])
                                        : std::string{})
               << (c + 1 == headers_.size() ? "\n" : ",");
        }
    }
}

std::string Table::fmt(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string Table::with_commas(long long value) {
    const bool negative = value < 0;
    unsigned long long magnitude =
        negative ? 0ULL - static_cast<unsigned long long>(value)
                 : static_cast<unsigned long long>(value);
    std::string digits = std::to_string(magnitude);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3 + 1);
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count != 0 && count % 3 == 0) out += ',';
        out += *it;
        ++count;
    }
    if (negative) out += '-';
    std::reverse(out.begin(), out.end());
    return out;
}

std::string Table::pct(double ratio) { return fmt(ratio * 100.0, 2) + "%"; }

}  // namespace dsspy::support

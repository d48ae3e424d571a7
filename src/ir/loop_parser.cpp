#include "ir/loop_parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

#include "support/check.hpp"

namespace dspaddr::ir {

namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kPunct,  // single character: ( ) [ ] { } ; , = + - *
  kLe,     // <=
  kLt,     // <
  kPlusEq,
  kPlusPlus,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  std::int64_t number = 0;
  std::size_t line = 1;
};

/// a + b, a - b or a * b (`op`), or a ParseError at `line` when the
/// result does not fit in int64.
std::int64_t checked(std::size_t line, char op, std::int64_t a,
                     std::int64_t b) {
  std::int64_t result = 0;
  const bool overflow = op == '+'   ? __builtin_add_overflow(a, b, &result)
                        : op == '-' ? __builtin_sub_overflow(a, b, &result)
                                    : __builtin_mul_overflow(a, b, &result);
  if (overflow) throw ParseError(line, "integer overflow");
  return result;
}

class Lexer {
public:
  explicit Lexer(std::string_view source) : source_(source) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    while (position_ < source_.size()) {
      const char c = source_[position_];
      if (c == '\n') {
        ++line_;
        ++position_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++position_;
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        skip_block_comment();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        while (position_ < source_.size() && source_[position_] != '\n') {
          ++position_;
        }
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(lex_ident());
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        tokens.push_back(lex_number());
        continue;
      }
      tokens.push_back(lex_punct());
    }
    tokens.push_back(Token{TokenKind::kEnd, "", 0, line_});
    return tokens;
  }

private:
  char peek(std::size_t ahead) const {
    return position_ + ahead < source_.size() ? source_[position_ + ahead]
                                              : '\0';
  }

  void skip_block_comment() {
    const std::size_t start_line = line_;
    position_ += 2;
    while (position_ + 1 < source_.size() &&
           !(source_[position_] == '*' && source_[position_ + 1] == '/')) {
      if (source_[position_] == '\n') ++line_;
      ++position_;
    }
    if (position_ + 1 >= source_.size()) {
      throw ParseError(start_line, "unterminated /* comment");
    }
    position_ += 2;
  }

  Token lex_ident() {
    Token token{TokenKind::kIdent, "", 0, line_};
    while (position_ < source_.size() &&
           (std::isalnum(static_cast<unsigned char>(source_[position_])) ||
            source_[position_] == '_')) {
      token.text += source_[position_++];
    }
    return token;
  }

  Token lex_number() {
    Token token{TokenKind::kNumber, "", 0, line_};
    while (position_ < source_.size() &&
           std::isdigit(static_cast<unsigned char>(source_[position_]))) {
      token.text += source_[position_++];
    }
    const char* end = token.text.data() + token.text.size();
    if (std::from_chars(token.text.data(), end, token.number).ec !=
        std::errc()) {
      throw ParseError(line_, "number out of range: " + token.text);
    }
    return token;
  }

  Token lex_punct() {
    const char c = source_[position_];
    Token token{TokenKind::kPunct, std::string(1, c), 0, line_};
    if (c == '<' && peek(1) == '=') {
      token.kind = TokenKind::kLe;
      token.text = "<=";
      position_ += 2;
      return token;
    }
    if (c == '<') {
      token.kind = TokenKind::kLt;
      position_ += 1;
      return token;
    }
    if (c == '+' && peek(1) == '=') {
      token.kind = TokenKind::kPlusEq;
      token.text = "+=";
      position_ += 2;
      return token;
    }
    if (c == '+' && peek(1) == '+') {
      token.kind = TokenKind::kPlusPlus;
      token.text = "++";
      position_ += 2;
      return token;
    }
    constexpr std::string_view kAllowed = "()[]{};,=+-*";
    if (kAllowed.find(c) == std::string_view::npos) {
      throw ParseError(line_, std::string("unexpected character '") + c +
                                  "'");
    }
    ++position_;
    return token;
  }

  std::string_view source_;
  std::size_t position_ = 0;
  std::size_t line_ = 1;
};

/// An index expression affine in the loop variable: coeff * i + base.
struct AffineIndex {
  std::int64_t coeff = 0;
  std::int64_t base = 0;
};

class Parser {
public:
  Parser(std::vector<Token> tokens, std::string kernel_name)
      : tokens_(std::move(tokens)), kernel_(std::move(kernel_name), "") {}

  Kernel run() {
    while (current().kind == TokenKind::kIdent &&
           current().text == "int") {
      parse_declaration();
    }
    parse_for_header();
    expect_punct("{");
    while (!is_punct("}")) {
      parse_statement();
    }
    expect_punct("}");
    if (current().kind != TokenKind::kEnd) {
      throw ParseError(current().line,
                       "trailing input after the loop body");
    }
    if (kernel_.accesses().empty()) {
      throw ParseError(current().line, "loop body has no array accesses");
    }
    kernel_.set_data_ops(data_ops_);
    return std::move(kernel_);
  }

private:
  const Token& current() const { return tokens_[index_]; }
  const Token& lookahead(std::size_t n = 1) const {
    return tokens_[std::min(index_ + n, tokens_.size() - 1)];
  }
  void advance() {
    if (index_ + 1 < tokens_.size()) ++index_;
  }

  bool is_punct(std::string_view text) const {
    return current().kind == TokenKind::kPunct && current().text == text;
  }

  void expect_punct(std::string_view text) {
    if (!is_punct(text)) {
      throw ParseError(current().line, "expected '" + std::string(text) +
                                           "', got '" + current().text +
                                           "'");
    }
    advance();
  }

  std::string expect_ident() {
    if (current().kind != TokenKind::kIdent) {
      throw ParseError(current().line, "expected an identifier, got '" +
                                           current().text + "'");
    }
    std::string name = current().text;
    advance();
    return name;
  }

  std::int64_t expect_number() {
    bool negative = false;
    if (is_punct("-")) {
      negative = true;
      advance();
    }
    if (current().kind != TokenKind::kNumber) {
      throw ParseError(current().line,
                       "expected a number, got '" + current().text + "'");
    }
    const std::int64_t value = current().number;
    advance();
    return negative ? -value : value;
  }

  // int NAME[SIZE], NAME[SIZE], ...;
  void parse_declaration() {
    advance();  // 'int'
    while (true) {
      const std::size_t line = current().line;
      const std::string name = expect_ident();
      expect_punct("[");
      const std::int64_t size = expect_number();
      expect_punct("]");
      try {
        kernel_.add_array(name, size);
      } catch (const InvalidArgument& e) {
        throw ParseError(line, e.what());
      }
      if (is_punct(",")) {
        advance();
        continue;
      }
      expect_punct(";");
      break;
    }
  }

  // for (i = S; i <= E; i += D)  [also i < E, i++]
  void parse_for_header() {
    if (current().kind != TokenKind::kIdent || current().text != "for") {
      throw ParseError(current().line,
                       "expected 'for', got '" + current().text + "'");
    }
    const std::size_t line = current().line;
    advance();
    expect_punct("(");
    loop_var_ = expect_ident();
    expect_punct("=");
    start_ = expect_number();
    expect_punct(";");

    if (expect_ident() != loop_var_) {
      throw ParseError(line, "loop condition must test '" + loop_var_ +
                                 "'");
    }
    bool inclusive;
    if (current().kind == TokenKind::kLe) {
      inclusive = true;
    } else if (current().kind == TokenKind::kLt) {
      inclusive = false;
    } else {
      throw ParseError(current().line, "expected '<=' or '<'");
    }
    advance();
    const std::int64_t end = expect_number();
    expect_punct(";");

    if (expect_ident() != loop_var_) {
      throw ParseError(line, "loop increment must update '" + loop_var_ +
                                 "'");
    }
    if (current().kind == TokenKind::kPlusPlus) {
      step_ = 1;
      advance();
    } else if (current().kind == TokenKind::kPlusEq) {
      advance();
      step_ = expect_number();
      if (step_ <= 0) {
        throw ParseError(line, "loop step must be positive");
      }
    } else {
      throw ParseError(current().line, "expected '++' or '+='");
    }
    expect_punct(")");

    const std::int64_t limit = inclusive ? end : end - 1;
    if (limit < start_) {
      throw ParseError(line, "loop executes zero iterations");
    }
    const std::int64_t span = checked(line, '-', limit, start_);
    kernel_.set_iterations(checked(line, '+', span / step_, 1));
  }

  // statement := ref ';' | ref '=' expr ';'
  void parse_statement() {
    const std::size_t line = current().line;
    const auto [array, index] = parse_ref();
    if (is_punct(";")) {
      advance();
      add_access(line, array, index, /*is_write=*/false);
      return;
    }
    expect_punct("=");
    parse_expression();
    expect_punct(";");
    add_access(line, array, index, /*is_write=*/true);
  }

  // expr := term (('+' | '-') term)*  — only the refs and operator
  // count matter; constants are folded away as immediates.
  void parse_expression() {
    parse_term();
    while (is_punct("+") || is_punct("-")) {
      advance();
      ++data_ops_;
      parse_term();
    }
  }

  // term := factor ('*' factor)*
  void parse_term() {
    parse_factor();
    while (is_punct("*")) {
      advance();
      ++data_ops_;
      parse_factor();
    }
  }

  // factor := ref | number | '(' expr ')'
  void parse_factor() {
    if (current().kind == TokenKind::kNumber || is_punct("-")) {
      expect_number();
      return;
    }
    if (is_punct("(")) {
      advance();
      parse_expression();
      expect_punct(")");
      return;
    }
    const std::size_t line = current().line;
    const auto [array, index] = parse_ref();
    add_access(line, array, index, /*is_write=*/false);
  }

  // ref := IDENT '[' affine ']'
  std::pair<std::string, AffineIndex> parse_ref() {
    const std::string array = expect_ident();
    expect_punct("[");
    const AffineIndex index = parse_affine();
    expect_punct("]");
    return {array, index};
  }

  // affine := part (('+' | '-') part)*   with
  // part := NUMBER ['*' i] | i | NUMBER
  AffineIndex parse_affine() {
    AffineIndex result;
    std::int64_t sign = 1;
    if (is_punct("-")) {
      sign = -1;
      advance();
    }
    parse_affine_part(result, sign);
    while (is_punct("+") || is_punct("-")) {
      sign = is_punct("+") ? 1 : -1;
      advance();
      parse_affine_part(result, sign);
    }
    return result;
  }

  void parse_affine_part(AffineIndex& result, std::int64_t sign) {
    const std::size_t line = current().line;
    if (current().kind == TokenKind::kNumber) {
      const std::int64_t value = expect_number();
      if (is_punct("*")) {
        advance();
        if (expect_ident() != loop_var_) {
          throw ParseError(current().line,
                           "index must be affine in '" + loop_var_ + "'");
        }
        result.coeff = checked(line, '+', result.coeff, sign * value);
      } else {
        result.base = checked(line, '+', result.base, sign * value);
      }
      return;
    }
    if (current().kind == TokenKind::kIdent) {
      if (current().text != loop_var_) {
        throw ParseError(current().line,
                         "unknown variable '" + current().text +
                             "' in index (only '" + loop_var_ +
                             "' and constants are allowed)");
      }
      advance();
      result.coeff = checked(line, '+', result.coeff, sign);
      return;
    }
    throw ParseError(current().line,
                     "malformed index expression at '" + current().text +
                         "'");
  }

  void add_access(std::size_t line, const std::string& array,
                  const AffineIndex& index, bool is_write) {
    const std::int64_t scaled = checked(line, '*', index.coeff, start_);
    const std::int64_t offset = checked(line, '+', scaled, index.base);
    const std::int64_t stride = checked(line, '*', index.coeff, step_);
    try {
      kernel_.add_access(array, offset, stride, is_write);
    } catch (const InvalidArgument& e) {
      throw ParseError(line, e.what());
    }
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
  Kernel kernel_;
  std::string loop_var_;
  std::int64_t start_ = 0;
  std::int64_t step_ = 1;
  std::int64_t data_ops_ = 0;
};

}  // namespace

Kernel parse_c_loop(std::string_view source, std::string name) {
  Lexer lexer(source);
  Parser parser(lexer.run(), std::move(name));
  return parser.run();
}

}  // namespace dspaddr::ir

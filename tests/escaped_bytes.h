// The 256 byte values 0x00..0xff in order, and the exact escape both
// JSON writers (telemetry lines and fuzz repro files) produce for them:
// 406 bytes, pinned by Json.EscapesControlCharactersAndQuotes and
// VerifyCampaign.ReproEscapesEveryByteValue.
#pragma once

#include <string>

namespace asyncmac {

inline std::string every_byte_value() {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  return all;
}

inline const std::string kEveryByteValueEscaped =
    "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
    "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
    "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
    "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
    " !\\\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMN"
    "OPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
    "\x7f\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e"
    "\x8f\x90\x91\x92\x93\x94\x95\x96\x97\x98\x99\x9a\x9b\x9c\x9d\x9e"
    "\x9f\xa0\xa1\xa2\xa3\xa4\xa5\xa6\xa7\xa8\xa9\xaa\xab\xac\xad\xae"
    "\xaf\xb0\xb1\xb2\xb3\xb4\xb5\xb6\xb7\xb8\xb9\xba\xbb\xbc\xbd\xbe"
    "\xbf\xc0\xc1\xc2\xc3\xc4\xc5\xc6\xc7\xc8\xc9\xca\xcb\xcc\xcd\xce"
    "\xcf\xd0\xd1\xd2\xd3\xd4\xd5\xd6\xd7\xd8\xd9\xda\xdb\xdc\xdd\xde"
    "\xdf\xe0\xe1\xe2\xe3\xe4\xe5\xe6\xe7\xe8\xe9\xea\xeb\xec\xed\xee"
    "\xef\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8\xf9\xfa\xfb\xfc\xfd\xfe"
    "\xff";

}  // namespace asyncmac

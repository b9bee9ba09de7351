"""Unit tests for DNS records, names and messages."""

from __future__ import annotations

import pytest

from repro.dns.message import DnsResponse, Question, ResponseCode
from repro.dns.records import (
    RecordType,
    ResourceRecord,
    SrvData,
    is_subdomain,
    normalize_name,
    validate_name,
)


class TestNames:
    def test_normalize_lowercases_and_strips(self):
        assert normalize_name("  MAPS.Example.  ") == "maps.example"

    def test_normalize_empty(self):
        assert normalize_name("") == ""
        assert normalize_name(".") == ""

    def test_validate_accepts_valid_names(self):
        validate_name("a.b.c")
        validate_name("3.2.1.loc.openflame.example")
        validate_name("store-0.maps.example")

    def test_validate_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            validate_name("under_score.example")
        with pytest.raises(ValueError):
            validate_name("-leading.example")
        with pytest.raises(ValueError):
            validate_name("")

    def test_validate_rejects_too_long(self):
        with pytest.raises(ValueError):
            validate_name(".".join(["a" * 60] * 5))

    def test_is_subdomain(self):
        assert is_subdomain("x.maps.example", "maps.example")
        assert is_subdomain("maps.example", "maps.example")
        assert not is_subdomain("maps.example", "x.maps.example")
        assert not is_subdomain("ymaps.example", "maps.example")
        assert is_subdomain("anything.at.all", "")


class TestResourceRecord:
    def test_name_normalised(self):
        record = ResourceRecord("A.B.C", RecordType.A, "1.2.3.4")
        assert record.name == "a.b.c"

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("a.b", RecordType.A, "1.2.3.4", ttl_seconds=-1)


class TestSrvData:
    def test_encode_decode_round_trip(self):
        original = SrvData(target="store-0.maps.example", port=8443, priority=1, weight=5)
        decoded = SrvData.decode(original.encode())
        assert decoded == original

    def test_decode_target_with_spaces(self):
        decoded = SrvData.decode("0 0 443 State University")
        assert decoded.target == "State University"

    def test_decode_malformed(self):
        with pytest.raises(ValueError):
            SrvData.decode("1 2 3")


class TestMessages:
    def test_question_normalises_name(self):
        question = Question("A.B.C", RecordType.NS)
        assert question.name == "a.b.c"

    def test_referral_detection(self):
        question = Question("x.maps.example", RecordType.SRV)
        referral = DnsResponse(
            question,
            authority=[ResourceRecord("maps.example", RecordType.NS, "ns1.example")],
        )
        assert referral.is_referral
        answered = DnsResponse(
            question, answers=[ResourceRecord("x.maps.example", RecordType.SRV, "0 0 443 s")]
        )
        assert not answered.is_referral

    def test_nxdomain_flag(self):
        question = Question("gone.example", RecordType.A)
        response = DnsResponse(question, code=ResponseCode.NXDOMAIN)
        assert response.is_nxdomain

    def test_answer_data(self):
        question = Question("a.example", RecordType.TXT)
        response = DnsResponse(
            question,
            answers=[
                ResourceRecord("a.example", RecordType.TXT, "one"),
                ResourceRecord("a.example", RecordType.TXT, "two"),
            ],
        )
        assert response.answer_data() == ["one", "two"]

"""Unit tests for credentials and the Section 5.3 access-control model."""

from __future__ import annotations

import pytest

from repro.geometry.point import LatLng
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.policy import AccessDenied, AccessPolicy, ServiceName, ServiceRule
from repro.osm.elements import TAG_PRIVACY, Node


class TestCredential:
    def test_anonymous(self):
        assert ANONYMOUS.is_anonymous
        assert ANONYMOUS.email_domain is None

    def test_email_domain(self):
        cred = Credential(user_id="alice", email="alice@campus.edu")
        assert cred.email_domain == "campus.edu"
        assert not cred.is_anonymous

    def test_email_domain_case_insensitive(self):
        assert Credential(email="x@Campus.EDU").email_domain == "campus.edu"

    def test_malformed_email(self):
        assert Credential(email="not-an-email").email_domain is None

    def test_with_token(self):
        cred = Credential(user_id="bob").with_token("t1").with_token("t2")
        assert cred.tokens == frozenset({"t1", "t2"})
        assert cred.user_id == "bob"


class TestServiceRule:
    def test_empty_rule_allows_everyone(self):
        assert ServiceRule().evaluate(ANONYMOUS) is None

    def test_anonymous_blocked(self):
        rule = ServiceRule(allow_anonymous=False)
        assert rule.evaluate(ANONYMOUS) is not None
        assert rule.evaluate(Credential(user_id="alice", email="a@x.com")) is None

    def test_domain_restriction(self):
        rule = ServiceRule(allowed_email_domains={"campus.edu"}, allow_anonymous=False)
        assert rule.evaluate(Credential(email="a@campus.edu")) is None
        assert rule.evaluate(Credential(email="a@other.com")) is not None
        assert rule.evaluate(Credential(user_id="x")) is not None

    def test_application_restriction(self):
        rule = ServiceRule(allowed_applications={"campus-nav"})
        assert rule.evaluate(Credential(application_id="campus-nav")) is None
        assert rule.evaluate(Credential(application_id="other-app")) is not None

    def test_token_requirement(self):
        rule = ServiceRule(required_tokens={"door-badge"})
        assert rule.evaluate(Credential(tokens=frozenset({"door-badge"}))) is None
        assert rule.evaluate(ANONYMOUS) is not None

    def test_all_constraints_must_pass(self):
        rule = ServiceRule(
            allowed_email_domains={"campus.edu"},
            allowed_applications={"campus-nav"},
            allow_anonymous=False,
        )
        ok = Credential(email="a@campus.edu", application_id="campus-nav")
        wrong_app = Credential(email="a@campus.edu", application_id="other")
        assert rule.evaluate(ok) is None
        assert rule.evaluate(wrong_app) is not None


class TestAccessPolicy:
    def test_default_policy_is_open(self):
        policy = AccessPolicy()
        for service in ServiceName:
            policy.check(service, ANONYMOUS)
        assert policy.checks_performed == len(ServiceName)

    def test_user_level_control(self):
        """Section 5.3: only university users get fine-grained map data."""
        policy = AccessPolicy()
        policy.restrict_to_domain(ServiceName.SEARCH, "campus.edu")
        student = Credential(email="s@campus.edu")
        outsider = Credential(email="o@gmail.com")
        policy.check(ServiceName.SEARCH, student)
        with pytest.raises(AccessDenied):
            policy.check(ServiceName.SEARCH, outsider)
        with pytest.raises(AccessDenied):
            policy.check(ServiceName.SEARCH, ANONYMOUS)

    def test_service_level_control(self):
        """Section 5.3: tiles for everyone, localization only with a token."""
        policy = AccessPolicy()
        policy.require_token(ServiceName.LOCALIZATION, "physical-access")
        policy.check(ServiceName.TILES, ANONYMOUS)
        with pytest.raises(AccessDenied):
            policy.check(ServiceName.LOCALIZATION, ANONYMOUS)
        policy.check(ServiceName.LOCALIZATION, ANONYMOUS.with_token("physical-access"))

    def test_application_level_control(self):
        """Section 5.3: localization only from the campus navigation app."""
        policy = AccessPolicy()
        policy.restrict_to_application(ServiceName.LOCALIZATION, "campus-nav")
        policy.check(ServiceName.LOCALIZATION, Credential(application_id="campus-nav"))
        with pytest.raises(AccessDenied):
            policy.check(ServiceName.LOCALIZATION, Credential(application_id="random-app"))

    def test_allows_does_not_raise(self):
        policy = AccessPolicy()
        policy.restrict_to_domain(ServiceName.GEOCODE, "campus.edu")
        assert not policy.allows(ServiceName.GEOCODE, ANONYMOUS)
        assert policy.allows(ServiceName.TILES, ANONYMOUS)

    def test_access_denied_carries_reason(self):
        policy = AccessPolicy()
        policy.restrict_to_domain(ServiceName.SEARCH, "campus.edu")
        with pytest.raises(AccessDenied) as excinfo:
            policy.check(ServiceName.SEARCH, ANONYMOUS)
        assert excinfo.value.service == ServiceName.SEARCH
        assert "anonymous" in excinfo.value.reason


class TestPrivateDataFiltering:
    def _nodes(self) -> list[Node]:
        return [
            Node(1, LatLng(0.0, 0.0), {"name": "public lobby"}),
            Node(2, LatLng(0.0, 0.001), {"name": "server room", TAG_PRIVACY: "private"}),
        ]

    def test_open_policy_shows_everything(self):
        policy = AccessPolicy()
        assert len(policy.filter_nodes(self._nodes(), ANONYMOUS)) == 2

    def test_private_nodes_hidden_from_outsiders(self):
        policy = AccessPolicy()
        policy.private_data_domains.add("campus.edu")
        visible = policy.filter_nodes(self._nodes(), ANONYMOUS)
        assert [n.node_id for n in visible] == [1]

    def test_private_nodes_visible_to_domain_members(self):
        policy = AccessPolicy()
        policy.private_data_domains.add("campus.edu")
        insider = Credential(email="a@campus.edu")
        assert len(policy.filter_nodes(self._nodes(), insider)) == 2

    def test_private_nodes_visible_with_token(self):
        policy = AccessPolicy()
        policy.private_data_tokens.add("staff")
        assert len(policy.filter_nodes(self._nodes(), ANONYMOUS.with_token("staff"))) == 2
        assert len(policy.filter_nodes(self._nodes(), ANONYMOUS)) == 1

    @pytest.mark.parametrize(
        "domains, tokens, credential, sees_private",
        [
            (set(), set(), ANONYMOUS, True),
            ({"campus.edu"}, set(), ANONYMOUS, False),
            ({"campus.edu"}, set(), Credential(email="a@campus.edu"), True),
            ({"campus.edu"}, set(), Credential(email="a@elsewhere.edu"), False),
            (set(), {"staff"}, ANONYMOUS.with_token("staff"), True),
            (set(), {"staff"}, ANONYMOUS.with_token("guest"), False),
            ({"campus.edu"}, {"staff"}, Credential(email="a@elsewhere.edu").with_token("staff"), True),
        ],
    )
    def test_node_filter_is_none_exactly_for_principals_who_see_private_data(
        self, domains, tokens, credential, sees_private
    ):
        policy = AccessPolicy(private_data_domains=set(domains), private_data_tokens=set(tokens))
        assert policy.can_see_private_data(credential) is sees_private
        visible = policy.node_filter(credential)
        if sees_private:
            assert visible is None
        else:
            public, private = self._nodes()
            assert visible(public) and not visible(private)
